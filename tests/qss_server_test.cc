// The multiplexing server front-end (DESIGN.md §6g): the wire protocol
// round-trips every message type, FrameBuffer survives any fragmentation
// and poisons on corruption, and QssServer multiplexes per-connection
// subscription namespaces over one SubscriberRegistry — pushing
// notification frames whose rows are byte-identical to what an
// in-process subscriber sees.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "oracle.h"
#include "qss/qss.h"
#include "qss/server/protocol.h"
#include "qss/server/server.h"
#include "qss/server/transport.h"
#include "store/format.h"
#include "testing/generators.h"

namespace doem {
namespace qss {
namespace server {
namespace {

SubscribeMsg GuideSubscribe(const std::string& name, int64_t interval,
                            const std::string& leaf = "name") {
  return {name, "", interval, "select guide.restaurant." + leaf,
          "select " + name + "." + leaf + "<cre at T> where T > t[-1]"};
}

// ------------------------------------------------------ Protocol codec

TEST(QssWireProtocolTest, EveryMessageTypeRoundTrips) {
  SubscribeMsg sub;
  sub.name = "Lytton";
  sub.entry = "Cohort";
  sub.interval_ticks = 3;
  sub.polling_query = "select guide.restaurant";
  sub.filter_query = "select Cohort.restaurant<cre at T>";
  FrameBuffer buf;
  ASSERT_TRUE(buf.Feed(EncodeSubscribe(sub)).ok());
  WireFrame frame;
  ASSERT_TRUE(buf.Next(&frame));
  EXPECT_EQ(frame.type, MsgType::kSubscribe);
  auto sub2 = DecodeSubscribe(frame.payload);
  ASSERT_TRUE(sub2.ok()) << sub2.status().ToString();
  EXPECT_EQ(sub2->name, sub.name);
  EXPECT_EQ(sub2->entry, sub.entry);
  EXPECT_EQ(sub2->interval_ticks, sub.interval_ticks);
  EXPECT_EQ(sub2->polling_query, sub.polling_query);
  EXPECT_EQ(sub2->filter_query, sub.filter_query);

  NotificationMsg note;
  note.name = "Lytton";
  note.poll_time = Timestamp(123456789);
  note.poll_index = 42;
  note.rows = std::string("row bytes with \0 inside", 23);
  ASSERT_TRUE(buf.Feed(EncodeNotification(note)).ok());
  ASSERT_TRUE(buf.Next(&frame));
  EXPECT_EQ(frame.type, MsgType::kNotification);
  auto note2 = DecodeNotification(frame.payload);
  ASSERT_TRUE(note2.ok()) << note2.status().ToString();
  EXPECT_EQ(note2->name, note.name);
  EXPECT_EQ(note2->poll_time, note.poll_time);
  EXPECT_EQ(note2->poll_index, note.poll_index);
  EXPECT_EQ(note2->rows, note.rows);

  ErrorMsg err{"Lytton", "bad-filter-query", "filter query: parse error"};
  ASSERT_TRUE(buf.Feed(EncodeError(err)).ok());
  ASSERT_TRUE(buf.Next(&frame));
  auto err2 = DecodeError(frame.payload);
  ASSERT_TRUE(err2.ok());
  EXPECT_EQ(err2->kind, "bad-filter-query");
  EXPECT_EQ(err2->message, "filter query: parse error");

  ASSERT_TRUE(buf.Feed(EncodeUnsubscribe(UnsubscribeMsg{"Lytton"})).ok());
  ASSERT_TRUE(buf.Next(&frame));
  EXPECT_EQ(DecodeUnsubscribe(frame.payload)->name, "Lytton");
  SubscribedMsg ok_msg;
  ok_msg.name = "Lytton";
  ok_msg.handle = 7;
  ASSERT_TRUE(buf.Feed(EncodeSubscribed(ok_msg)).ok());
  ASSERT_TRUE(buf.Next(&frame));
  EXPECT_EQ(DecodeSubscribed(frame.payload)->handle, 7u);
  ASSERT_TRUE(buf.Feed(EncodeUnsubscribed(UnsubscribedMsg{"Lytton"})).ok());
  ASSERT_TRUE(buf.Next(&frame));
  EXPECT_EQ(DecodeUnsubscribed(frame.payload)->name, "Lytton");
  EXPECT_FALSE(buf.Next(&frame));
  EXPECT_FALSE(buf.poisoned());
}

// Any fragmentation reassembles: the same three frames arrive whether
// the stream is chopped per byte, in odd chunks, or all at once.
TEST(QssWireProtocolTest, FrameBufferReassemblesAnyFragmentation) {
  std::string stream = EncodeSubscribe(GuideSubscribe("A", 1)) +
                       EncodeUnsubscribe(UnsubscribeMsg{"A"}) +
                       EncodeSubscribe(GuideSubscribe("B", 2, "price"));
  for (size_t chunk : {size_t{1}, size_t{3}, size_t{7}, stream.size()}) {
    FrameBuffer buf;
    for (size_t off = 0; off < stream.size(); off += chunk) {
      ASSERT_TRUE(
          buf.Feed(std::string_view(stream).substr(off, chunk)).ok());
    }
    WireFrame frame;
    std::vector<MsgType> types;
    while (buf.Next(&frame)) types.push_back(frame.type);
    EXPECT_EQ(types, (std::vector<MsgType>{MsgType::kSubscribe,
                                           MsgType::kUnsubscribe,
                                           MsgType::kSubscribe}))
        << "chunk size " << chunk;
    EXPECT_FALSE(buf.poisoned());
  }
}

TEST(QssWireProtocolTest, CorruptFramePoisonsTheBuffer) {
  // A flipped payload byte breaks the checksum.
  std::string good = EncodeSubscribe(GuideSubscribe("A", 1));
  std::string bad = good;
  bad[bad.size() - 1] ^= 0x40;
  FrameBuffer buf;
  Status fed = buf.Feed(bad);
  EXPECT_FALSE(fed.ok());
  EXPECT_TRUE(buf.poisoned());
  // A poisoned buffer stays poisoned; later good bytes are not decoded.
  EXPECT_FALSE(buf.Feed(good).ok());
  WireFrame frame;
  EXPECT_FALSE(buf.Next(&frame));

  // An unknown type byte is equally unrecoverable. The type byte lives
  // right after the length+crc words, so rebuild the frame via the store
  // codec with a bogus type.
  FrameBuffer buf2;
  std::string unknown = store::EncodeFrame(200, "payload");
  EXPECT_FALSE(buf2.Feed(unknown).ok());
  EXPECT_TRUE(buf2.poisoned());
}

// ------------------------------------------------------------ Server

using Harness = oracle::LiveServer;
using oracle::WiredClient;

TEST(QssServerTest, SubscribeUnsubscribeRoundTrip) {
  Harness h;
  WiredClient wire(&h.server);
  wire.client.Subscribe(GuideSubscribe("Names", 1));
  wire.pipe.PumpAll();

  auto events = wire.client.TakeEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, MsgType::kSubscribed);
  EXPECT_EQ(events[0].subscribed.name, "Names");
  EXPECT_NE(events[0].subscribed.handle, 0u);
  EXPECT_EQ(h.server.SubscriptionCount(wire.id), 1u);
  EXPECT_EQ(h.qss.registry().SubscriberCount(), 1u);
  EXPECT_EQ(h.qss.GroupCount(), 1u);

  wire.client.Unsubscribe("Names");
  wire.pipe.PumpAll();
  events = wire.client.TakeEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, MsgType::kUnsubscribed);
  EXPECT_EQ(h.qss.registry().SubscriberCount(), 0u);
  EXPECT_EQ(h.qss.GroupCount(), 0u);

  // Unsubscribing a name this connection never registered: an error
  // frame, connection stays up.
  wire.client.Unsubscribe("Nobody");
  wire.pipe.PumpAll();
  events = wire.client.TakeEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, MsgType::kError);
  EXPECT_EQ(events[0].error.kind, "not-found");
  EXPECT_TRUE(h.server.Connected(wire.id));
}

// Notifications pushed over the wire, reassembled from 5-byte
// fragments, carry exactly the rows an in-process subscriber receives,
// in the same order (an oracle instance, tests/oracle.h).
TEST(QssServerTest, NotificationPushMatchesInProcessSubscriberByteForByte) {
  oracle::Scenario s;
  s.steps = 8;
  s.Sub("Twin", "name", 2);
  s.Advance({7});
  const oracle::Output ref = oracle::Execute(s, {});
  const oracle::Output wire = oracle::ExpectSame(
      s, {}, ref,
      {.obs = true, .front_end = oracle::Config::FrontEnd::kWire});
  EXPECT_FALSE(ref.notifications.empty());
  EXPECT_EQ(wire.metrics->CounterValue("qss.server.notifications"),
            wire.notifications.size());
}

TEST(QssServerTest, PerConnectionNamespacesAreIndependent) {
  Harness h;
  WiredClient a(&h.server);
  WiredClient b(&h.server);
  EXPECT_EQ(h.server.ConnectionCount(), 2u);

  // Both connections own "Mine"; within one connection it is a duplicate.
  a.client.Subscribe(GuideSubscribe("Mine", 1));
  b.client.Subscribe(GuideSubscribe("Mine", 1, "price"));
  a.pipe.PumpAll();
  b.pipe.PumpAll();
  EXPECT_EQ(a.client.TakeEvents()[0].type, MsgType::kSubscribed);
  EXPECT_EQ(b.client.TakeEvents()[0].type, MsgType::kSubscribed);
  EXPECT_EQ(h.qss.registry().SubscriberCount(), 2u);

  a.client.Subscribe(GuideSubscribe("Mine", 3));
  a.pipe.PumpAll();
  auto events = a.client.TakeEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, MsgType::kError);
  EXPECT_EQ(events[0].error.kind, "duplicate-subscription");
  EXPECT_TRUE(h.server.Connected(a.id));
  EXPECT_EQ(h.metrics.CounterValue("qss.server.subscribes_rejected"), 1u);

  // Detaching a connection releases only its own registrations.
  h.server.Detach(a.id);
  EXPECT_EQ(h.server.ConnectionCount(), 1u);
  EXPECT_EQ(h.qss.registry().SubscriberCount(), 1u);
  EXPECT_EQ(h.metrics.GaugeValue("qss.server.connections"), 1);
}

TEST(QssServerTest, BadQueriesAreRejectedWithTypedKinds) {
  Harness h;
  WiredClient wire(&h.server);

  SubscribeMsg bad_poll = GuideSubscribe("P", 1);
  bad_poll.polling_query = "select guide.restaurant<cre at T>";
  wire.client.Subscribe(bad_poll);
  SubscribeMsg bad_filter = GuideSubscribe("F", 1);
  bad_filter.filter_query = "select ((";
  wire.client.Subscribe(bad_filter);
  wire.pipe.PumpAll();

  auto events = wire.client.TakeEvents();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].type, MsgType::kError);
  EXPECT_EQ(events[0].error.name, "P");
  EXPECT_EQ(events[0].error.kind, "bad-polling-query");
  EXPECT_EQ(events[1].error.name, "F");
  EXPECT_EQ(events[1].error.kind, "bad-filter-query");
  // Rejected subscriptions left nothing behind.
  EXPECT_EQ(h.qss.registry().SubscriberCount(), 0u);
  EXPECT_EQ(h.qss.GroupCount(), 0u);
  EXPECT_TRUE(h.server.Connected(wire.id));
}

// A corrupt frame cannot be resynchronized: the server answers with a
// final "protocol" error frame, closes the connection, and releases its
// subscriptions.
TEST(QssServerTest, CorruptFrameDropsConnectionAndReleasesSubscriptions) {
  Harness h;
  WiredClient wire(&h.server);
  wire.client.Subscribe(GuideSubscribe("Doomed", 1));
  wire.pipe.PumpAll();
  ASSERT_EQ(wire.client.TakeEvents()[0].type, MsgType::kSubscribed);
  ASSERT_EQ(h.qss.registry().SubscriberCount(), 1u);

  std::string garbage = EncodeUnsubscribe(UnsubscribeMsg{"Doomed"});
  garbage[garbage.size() - 1] ^= 0xff;
  wire.pipe.ClientSend(garbage);
  wire.pipe.PumpAll();

  EXPECT_FALSE(h.server.Connected(wire.id));
  EXPECT_EQ(h.qss.registry().SubscriberCount(), 0u);
  EXPECT_EQ(h.qss.GroupCount(), 0u);
  EXPECT_EQ(h.metrics.CounterValue("qss.server.protocol_errors"), 1u);
  auto events = wire.client.TakeEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, MsgType::kError);
  EXPECT_EQ(events[0].error.kind, "protocol");
  // The dead connection ignores further bytes.
  h.server.OnBytes(wire.id, EncodeSubscribe(GuideSubscribe("After", 1)));
  EXPECT_EQ(h.qss.registry().SubscriberCount(), 0u);
}

// A client sending a server-to-client frame type is a protocol error.
TEST(QssServerTest, ServerTypeFrameFromClientIsAProtocolError) {
  Harness h;
  WiredClient wire(&h.server);
  SubscribedMsg forged;
  forged.name = "X";
  forged.handle = 9;
  wire.pipe.ClientSend(EncodeSubscribed(forged));
  wire.pipe.PumpAll();
  EXPECT_FALSE(h.server.Connected(wire.id));
  auto events = wire.client.TakeEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].error.kind, "protocol");
}

// Three connections multiplexed over one registry: per-group histories
// are shared, notifications route to the owning connection only, and
// detach mid-run stops one client's pushes without disturbing the rest.
TEST(QssServerTest, MultiplexesManyConnectionsOverOneRegistry) {
  Harness h(Harness::Sinks::kMetrics, 16, 10);
  WiredClient a(&h.server);
  WiredClient b(&h.server);
  WiredClient c(&h.server);

  // a and b join the same cohort (same entry + filter text + group); c
  // watches a different leaf.
  SubscribeMsg cohort = GuideSubscribe("Cohort", 1);
  cohort.entry = "Cohort";
  cohort.name = "MineA";
  // No where-clause: matches every accumulated cre annotation, so the
  // filter fires at every poll and notification counts are exact.
  cohort.filter_query = "select Cohort.name<cre at T>";
  a.client.Subscribe(cohort);
  cohort.name = "MineB";
  b.client.Subscribe(cohort);
  SubscribeMsg prices = GuideSubscribe("Prices", 2, "price");
  prices.filter_query = "select Prices.price<cre at T>";
  c.client.Subscribe(prices);
  a.pipe.PumpAll();
  b.pipe.PumpAll();
  c.pipe.PumpAll();
  ASSERT_EQ(a.client.TakeEvents()[0].type, MsgType::kSubscribed);
  ASSERT_EQ(b.client.TakeEvents()[0].type, MsgType::kSubscribed);
  ASSERT_EQ(c.client.TakeEvents()[0].type, MsgType::kSubscribed);
  EXPECT_EQ(h.qss.GroupCount(), 2u);
  EXPECT_EQ(h.qss.registry().SubscriberCount(), 3u);

  ASSERT_TRUE(h.qss.AdvanceTo(Timestamp(h.start().ticks + 3)).ok());
  b.client.Unsubscribe("MineB");
  b.pipe.PumpToServer();  // the unsubscribe must land before more ticks
  ASSERT_TRUE(h.qss.AdvanceTo(Timestamp(h.start().ticks + 6)).ok());
  a.pipe.PumpAll();
  b.pipe.PumpAll();
  c.pipe.PumpAll();

  auto count_notes = [](std::vector<QssClient::Event> events,
                        const std::string& name) {
    size_t n = 0;
    for (const auto& e : events) {
      if (e.type == MsgType::kNotification) {
        EXPECT_EQ(e.notification.name, name);
        ++n;
      }
    }
    return n;
  };
  size_t a_notes = count_notes(a.client.TakeEvents(), "MineA");
  size_t b_notes = count_notes(b.client.TakeEvents(), "MineB");
  size_t c_notes = count_notes(c.client.TakeEvents(), "Prices");
  // a kept hearing after b left; b heard only the first window; the
  // cohort's shared group survived b's exit.
  EXPECT_GT(a_notes, b_notes);
  EXPECT_GT(b_notes, 0u);
  EXPECT_GT(c_notes, 0u);
  EXPECT_EQ(h.qss.GroupCount(), 2u);
  EXPECT_EQ(h.metrics.GaugeValue("qss.server.connections"), 3);
  EXPECT_EQ(h.metrics.CounterValue("qss.server.subscribes_ok"), 3u);
  EXPECT_EQ(h.metrics.CounterValue("qss.server.unsubscribes"), 1u);
}

// ------------------------------------------- Admin frames (DESIGN.md §6h)

// The introspection replies are ordinary frames: a multi-kilobyte
// Prometheus exposition reassembles from arbitrarily fragmented bytes,
// interleaved with the notification stream.
TEST(QssServerTest, AdminRepliesSurviveByteFragmentation) {
  Harness h;
  WiredClient wire(&h.server);
  wire.client.Subscribe(GuideSubscribe("Names", 1));
  wire.pipe.PumpAll();
  ASSERT_EQ(wire.client.TakeEvents()[0].type, MsgType::kSubscribed);
  ASSERT_TRUE(h.qss.AdvanceTo(Timestamp(h.start().ticks + 5)).ok());

  wire.client.RequestStats(StatsFormat::kPrometheus);
  wire.client.RequestHealth();
  // Deliver notifications + both admin replies in 3-byte fragments.
  while (wire.pipe.PumpToServer(3) > 0 || wire.pipe.PumpToClient(3) > 0) {
  }
  ASSERT_TRUE(wire.client.error().ok()) << wire.client.error().ToString();

  size_t notifications = 0;
  bool saw_stats = false, saw_health = false;
  for (const auto& e : wire.client.TakeEvents()) {
    if (e.type == MsgType::kNotification) {
      ++notifications;
    } else if (e.type == MsgType::kStatsReply) {
      saw_stats = true;
      EXPECT_NE(e.stats.body.find("# TYPE qss_polls_ok counter"),
                std::string::npos);
      EXPECT_NE(e.stats.rates_json.find("\"counter_deltas\""),
                std::string::npos);
    } else if (e.type == MsgType::kHealthReply) {
      saw_health = true;
      ASSERT_EQ(e.health.groups.size(), 1u);
      EXPECT_EQ(e.health.groups[0].subscribers, 1u);
      EXPECT_EQ(e.health.groups[0].circuit, CircuitState::kClosed);
      EXPECT_EQ(e.health.groups[0].polls_committed,
                h.metrics.CounterValue("qss.polls_ok"));
    }
  }
  EXPECT_GT(notifications, 0u);
  EXPECT_TRUE(saw_stats);
  EXPECT_TRUE(saw_health);
  EXPECT_EQ(h.metrics.CounterValue("qss.server.stats_requests"), 1u);
  EXPECT_EQ(h.metrics.CounterValue("qss.server.health_requests"), 1u);

  // No trace recorder configured: the dump is refused, the connection
  // survives, and the refusal is still counted.
  wire.client.RequestTraceDump();
  wire.pipe.PumpAll();
  auto events = wire.client.TakeEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, MsgType::kError);
  EXPECT_EQ(events[0].error.kind, "unavailable");
  EXPECT_TRUE(h.server.Connected(wire.id));
  EXPECT_EQ(h.metrics.CounterValue("qss.server.trace_dumps"), 1u);
}

// Admin replies are server-to-client only; a client sending one is as
// much a protocol violation as a forged Subscribed frame.
TEST(QssServerTest, ClientSentAdminReplyIsAProtocolError) {
  Harness h;
  WiredClient wire(&h.server);
  StatsReplyMsg forged;
  forged.body = "qss_polls_ok 999\n";
  wire.pipe.ClientSend(EncodeStatsReply(forged));
  wire.pipe.PumpAll();
  EXPECT_FALSE(h.server.Connected(wire.id));
  auto events = wire.client.TakeEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, MsgType::kError);
  EXPECT_EQ(events[0].error.kind, "protocol");
  EXPECT_EQ(h.metrics.CounterValue("qss.server.protocol_errors"), 1u);
}

// Symmetrically, a server pushing a client-to-server request kills the
// client's stream.
TEST(QssServerTest, ServerSentAdminRequestPoisonsTheClientStream) {
  QssClient client([](std::string_view) {});
  client.OnBytes(EncodeStatsRequest(StatsRequestMsg{}));
  EXPECT_FALSE(client.error().ok());
  // Later frames are ignored — the stream is dead, not resynchronized.
  client.OnBytes(EncodeStatsReply(StatsReplyMsg{}));
  EXPECT_TRUE(client.TakeEvents().empty());
}

}  // namespace
}  // namespace server
}  // namespace qss
}  // namespace doem
