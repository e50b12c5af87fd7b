#include "qss/server/server.h"

#include <utility>

#include "obs/clock.h"
#include "obs/log.h"
#include "obs/trace.h"

namespace doem {
namespace qss {
namespace server {

namespace {

obs::EventLog* Events(SubscriberRegistry* registry) {
  return registry->manager()->options().observability.events;
}

// Maps a Subscribe failure back to its PollError kind name for the
// error frame. The registry formats these statuses with fixed prefixes
// (the same strings the legacy API returned), so the prefix *is* the
// classification.
std::string ClassifySubscribeError(const std::string& message) {
  if (message.rfind("polling query", 0) == 0) {
    return PollErrorKindToString(PollError::Kind::kBadPollingQuery);
  }
  if (message.rfind("filter query", 0) == 0) {
    return PollErrorKindToString(PollError::Kind::kBadFilterQuery);
  }
  if (message.rfind("durable store", 0) == 0) {
    return PollErrorKindToString(PollError::Kind::kStore);
  }
  return PollErrorKindToString(PollError::Kind::kPoll);
}

}  // namespace

QssServer::QssServer(SubscriberRegistry* registry) : registry_(registry) {
  obs::MetricsRegistry* m =
      registry_->manager()->options().observability.metrics;
  if (m == nullptr) return;
  ins_.connections =
      m->GetGauge("qss.server.connections", "client connections attached");
  ins_.frames_in = m->GetCounter("qss.server.frames_in",
                                 "wire frames received from clients");
  ins_.frames_out =
      m->GetCounter("qss.server.frames_out", "wire frames sent to clients");
  ins_.subscribes_ok = m->GetCounter("qss.server.subscribes_ok",
                                     "subscribe requests accepted");
  ins_.subscribes_rejected = m->GetCounter(
      "qss.server.subscribes_rejected",
      "subscribe requests rejected (duplicate name or bad query)");
  ins_.unsubscribes =
      m->GetCounter("qss.server.unsubscribes", "unsubscribe requests honored");
  ins_.notifications = m->GetCounter(
      "qss.server.notifications", "notification frames pushed to clients");
  ins_.protocol_errors = m->GetCounter(
      "qss.server.protocol_errors",
      "connections dropped for unrecoverable wire-protocol errors");
  ins_.stats_requests =
      m->GetCounter("qss.server.stats_requests", "stats requests served");
  ins_.health_requests =
      m->GetCounter("qss.server.health_requests", "health requests served");
  ins_.trace_dumps =
      m->GetCounter("qss.server.trace_dumps", "trace-dump requests served");
  ins_.wire_ns = m->GetHistogram(
      "qss.server.wire_ns", obs::LatencyBucketsNs(),
      "Per-notification wire framing + transport hand-off latency");
  snapshotter_.emplace(m);
}

QssServer::~QssServer() {
  while (!connections_.empty()) {
    Detach(connections_.begin()->first);
  }
}

QssServer::ConnectionId QssServer::Attach(ByteSink send) {
  ConnectionId id = next_id_++;
  Connection& conn = connections_[id];
  conn.send = std::move(send);
  obs::SetGauge(ins_.connections, static_cast<int64_t>(connections_.size()));
  DOEM_LOG_EVENT(Events(registry_), obs::EventType::kConnectionOpened,
                 obs::EventSeverity::kInfo, registry_->manager()->now(),
                 "conn#" + std::to_string(id), "");
  return id;
}

void QssServer::Send(Connection* conn, std::string bytes) {
  if (conn->send) conn->send(bytes);
  obs::Count(ins_.frames_out);
}

void QssServer::SendError(Connection* conn, const std::string& name,
                          const std::string& kind,
                          const std::string& message) {
  ErrorMsg msg;
  msg.name = name;
  msg.kind = kind;
  msg.message = message;
  Send(conn, EncodeError(msg));
}

void QssServer::Close(ConnectionId id) {
  auto it = connections_.find(id);
  if (it == connections_.end()) return;
  // Release in registration order; each Unsubscribe may retire a group.
  for (const auto& [name, handle] : it->second.subs) {
    (void)registry_->Unsubscribe(handle);
  }
  size_t released = it->second.subs.size();
  connections_.erase(it);
  obs::SetGauge(ins_.connections, static_cast<int64_t>(connections_.size()));
  DOEM_LOG_EVENT(Events(registry_), obs::EventType::kConnectionClosed,
                 obs::EventSeverity::kInfo, registry_->manager()->now(),
                 "conn#" + std::to_string(id),
                 "released " + std::to_string(released) + " subscription(s)");
}

void QssServer::Fail(ConnectionId id, Connection* conn, const Status& error) {
  obs::Count(ins_.protocol_errors);
  DOEM_LOG_EVENT(Events(registry_), obs::EventType::kFramePoisoned,
                 obs::EventSeverity::kError, registry_->manager()->now(),
                 "conn#" + std::to_string(id), error.message());
  SendError(conn, "", "protocol", error.message());
  Close(id);
}

void QssServer::Detach(ConnectionId id) { Close(id); }

bool QssServer::Connected(ConnectionId id) const {
  return connections_.contains(id);
}

size_t QssServer::ConnectionCount() const { return connections_.size(); }

size_t QssServer::SubscriptionCount(ConnectionId id) const {
  auto it = connections_.find(id);
  return it == connections_.end() ? 0 : it->second.subs.size();
}

void QssServer::HandleSubscribe(ConnectionId id, Connection* conn,
                                const SubscribeMsg& msg) {
  if (conn->subs.contains(msg.name)) {
    obs::Count(ins_.subscribes_rejected);
    SendError(conn, msg.name,
              PollErrorKindToString(PollError::Kind::kDuplicateSubscription),
              "subscription '" + msg.name + "' exists");
    return;
  }
  Subscription sub;
  sub.name = msg.name;
  sub.entry = msg.entry;
  sub.frequency.interval_ticks = msg.interval_ticks < 1 ? 1
                                                        : msg.interval_ticks;
  sub.polling_query = msg.polling_query;
  sub.filter_query = msg.filter_query;
  std::string name = msg.name;
  // The callback fires inside polling entry points, under the service
  // mutex; the connection may have closed by then (Detach unsubscribes,
  // so normally it cannot), hence the liveness lookup.
  auto handle = registry_->Subscribe(
      sub, [this, id, name](const Notification& n) {
        auto cit = connections_.find(id);
        if (cit == connections_.end()) return;
        // The wire segment of the e2e decomposition: framing + handing
        // the bytes to the transport, measured here because it runs
        // inside the registry's callback (so qss.notify.e2e_ns, observed
        // after the callback returns, includes it).
        int64_t wire_start = obs::NowNs();
        NotificationMsg push;
        push.name = name;
        push.poll_time = n.poll_time;
        push.poll_index = n.poll_index;
        push.rows = n.result.RowsToString();
        Send(&cit->second, EncodeNotification(push));
        obs::Count(ins_.notifications);
        int64_t wire_ns = obs::ElapsedNs(wire_start);
        obs::Observe(ins_.wire_ns, wire_ns);
        // Safe under the (recursive) service mutex the callback runs in.
        if (PollGroup* group = registry_->GroupOf(n.handle)) {
          group->health.last_poll.wire_ns += wire_ns;
        }
      });
  if (!handle.ok()) {
    obs::Count(ins_.subscribes_rejected);
    SendError(conn, msg.name, ClassifySubscribeError(handle.status().message()),
              handle.status().message());
    return;
  }
  conn->subs.emplace(msg.name, *handle);
  obs::Count(ins_.subscribes_ok);
  SubscribedMsg ok;
  ok.name = msg.name;
  ok.handle = handle->id;
  Send(conn, EncodeSubscribed(ok));
}

void QssServer::HandleUnsubscribe(ConnectionId /*id*/, Connection* conn,
                                  const UnsubscribeMsg& msg) {
  auto it = conn->subs.find(msg.name);
  if (it == conn->subs.end()) {
    SendError(conn, msg.name, "not-found",
              "no subscription '" + msg.name + "'");
    return;
  }
  (void)registry_->Unsubscribe(it->second);
  conn->subs.erase(it);
  obs::Count(ins_.unsubscribes);
  UnsubscribedMsg ok;
  ok.name = msg.name;
  Send(conn, EncodeUnsubscribed(ok));
}

void QssServer::HandleStats(Connection* conn, const StatsRequestMsg& msg) {
  obs::Count(ins_.stats_requests);
  obs::MetricsRegistry* m =
      registry_->manager()->options().observability.metrics;
  if (m == nullptr || !snapshotter_.has_value()) {
    SendError(conn, "", "unavailable", "no metrics registry configured");
    return;
  }
  StatsReplyMsg reply;
  reply.format = msg.format;
  reply.body = msg.format == StatsFormat::kJson ? m->ExportJson()
                                                : m->ExportPrometheus();
  obs::MetricsSnapshotter::Interval interval = snapshotter_->Capture();
  reply.interval_ns = interval.interval_ns;
  reply.rates_json = interval.ToJson();
  Send(conn, EncodeStatsReply(reply));
}

void QssServer::HandleHealth(Connection* conn) {
  obs::Count(ins_.health_requests);
  PollGroupManager* manager = registry_->manager();
  HealthReplyMsg reply;
  reply.now = manager->now();
  for (PollGroupManager::GroupStatus& s : manager->GroupStatuses()) {
    GroupHealthMsg g;
    g.key = std::move(s.key);
    g.entries = std::move(s.entries);
    g.subscribers = s.subscribers;
    g.polls_committed = s.polls_committed;
    g.next_poll = s.next_poll;
    g.circuit = s.health.state;
    g.consecutive_failures =
        static_cast<uint64_t>(s.health.consecutive_failures);
    g.last_error = s.health.last_error.ok() ? std::string()
                                            : s.health.last_error.ToString();
    g.polls_attempted = s.health.polls_attempted;
    g.polls_succeeded = s.health.polls_succeeded;
    g.polls_failed = s.health.polls_failed;
    g.retries = s.health.retries;
    g.backoff_ticks = s.health.backoff_ticks;
    g.quarantined_until = s.health.quarantined_until;
    g.missed = std::move(s.health.missed);
    g.missed_dropped = s.health.missed_dropped;
    g.last_poll = s.health.last_poll;
    reply.groups.push_back(std::move(g));
  }
  Send(conn, EncodeHealthReply(reply));
}

void QssServer::HandleTraceDump(Connection* conn) {
  obs::Count(ins_.trace_dumps);
  obs::TraceRecorder* t = registry_->manager()->options().observability.trace;
  if (t == nullptr) {
    SendError(conn, "", "unavailable", "no trace recorder configured");
    return;
  }
  TraceDumpReplyMsg reply;
  reply.events = t->Events().size();
  reply.dropped = t->dropped();
  reply.chrome_json = t->ExportChromeTrace();
  t->Clear();
  Send(conn, EncodeTraceDumpReply(reply));
}

void QssServer::Dispatch(ConnectionId id, Connection* conn,
                         const WireFrame& frame) {
  switch (frame.type) {
    case MsgType::kSubscribe: {
      auto msg = DecodeSubscribe(frame.payload);
      if (!msg.ok()) return Fail(id, conn, msg.status());
      return HandleSubscribe(id, conn, *msg);
    }
    case MsgType::kUnsubscribe: {
      auto msg = DecodeUnsubscribe(frame.payload);
      if (!msg.ok()) return Fail(id, conn, msg.status());
      return HandleUnsubscribe(id, conn, *msg);
    }
    case MsgType::kStatsRequest: {
      auto msg = DecodeStatsRequest(frame.payload);
      if (!msg.ok()) return Fail(id, conn, msg.status());
      return HandleStats(conn, *msg);
    }
    case MsgType::kHealthRequest: {
      auto msg = DecodeHealthRequest(frame.payload);
      if (!msg.ok()) return Fail(id, conn, msg.status());
      return HandleHealth(conn);
    }
    case MsgType::kTraceDumpRequest: {
      auto msg = DecodeTraceDumpRequest(frame.payload);
      if (!msg.ok()) return Fail(id, conn, msg.status());
      return HandleTraceDump(conn);
    }
    case MsgType::kSubscribed:
    case MsgType::kUnsubscribed:
    case MsgType::kError:
    case MsgType::kNotification:
    case MsgType::kStatsReply:
    case MsgType::kHealthReply:
    case MsgType::kTraceDumpReply:
      return Fail(id, conn,
                  Status::InvalidArgument(
                      "server-to-client message type " +
                      std::to_string(static_cast<int>(frame.type)) +
                      " received from a client"));
  }
}

void QssServer::OnBytes(ConnectionId id, std::string_view bytes) {
  auto it = connections_.find(id);
  if (it == connections_.end()) return;
  Connection* conn = &it->second;
  Status fed = conn->frames.Feed(bytes);
  if (!fed.ok()) {
    Fail(id, conn, fed);
    return;
  }
  WireFrame frame;
  while (connections_.contains(id) && conn->frames.Next(&frame)) {
    obs::Count(ins_.frames_in);
    Dispatch(id, conn, frame);
  }
}

// ---- Client ----------------------------------------------------------------

void QssClient::OnBytes(std::string_view bytes) {
  if (!error_.ok()) return;
  Status fed = frames_.Feed(bytes);
  if (!fed.ok()) {
    error_ = fed;
    return;
  }
  WireFrame frame;
  while (frames_.Next(&frame)) {
    Event event;
    event.type = frame.type;
    switch (frame.type) {
      case MsgType::kSubscribed: {
        auto msg = DecodeSubscribed(frame.payload);
        if (!msg.ok()) { error_ = msg.status(); return; }
        event.subscribed = std::move(msg).value();
        break;
      }
      case MsgType::kUnsubscribed: {
        auto msg = DecodeUnsubscribed(frame.payload);
        if (!msg.ok()) { error_ = msg.status(); return; }
        event.unsubscribed = std::move(msg).value();
        break;
      }
      case MsgType::kError: {
        auto msg = DecodeError(frame.payload);
        if (!msg.ok()) { error_ = msg.status(); return; }
        event.error = std::move(msg).value();
        break;
      }
      case MsgType::kNotification: {
        auto msg = DecodeNotification(frame.payload);
        if (!msg.ok()) { error_ = msg.status(); return; }
        event.notification = std::move(msg).value();
        break;
      }
      case MsgType::kStatsReply: {
        auto msg = DecodeStatsReply(frame.payload);
        if (!msg.ok()) { error_ = msg.status(); return; }
        event.stats = std::move(msg).value();
        break;
      }
      case MsgType::kHealthReply: {
        auto msg = DecodeHealthReply(frame.payload);
        if (!msg.ok()) { error_ = msg.status(); return; }
        event.health = std::move(msg).value();
        break;
      }
      case MsgType::kTraceDumpReply: {
        auto msg = DecodeTraceDumpReply(frame.payload);
        if (!msg.ok()) { error_ = msg.status(); return; }
        event.trace_dump = std::move(msg).value();
        break;
      }
      case MsgType::kSubscribe:
      case MsgType::kUnsubscribe:
      case MsgType::kStatsRequest:
      case MsgType::kHealthRequest:
      case MsgType::kTraceDumpRequest:
        error_ = Status::InvalidArgument(
            "client-to-server message type received from the server");
        return;
    }
    events_.push_back(std::move(event));
  }
}

std::vector<QssClient::Event> QssClient::TakeEvents() {
  std::vector<Event> out;
  out.swap(events_);
  return out;
}

}  // namespace server
}  // namespace qss
}  // namespace doem
