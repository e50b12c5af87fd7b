// doem_shell: an interactive (or scripted) command shell over the
// library — load/save OEM text databases, stage basic change operations,
// commit them as timestamped change sets, time-travel, and run Chorel
// queries with either evaluation strategy.
//
// Usage:  doem_shell [script-file]     (no argument: read stdin)
//
// Commands (one per line; '#' starts a comment):
//   load <file>          load an OEM text database (becomes history base)
//   load doem <file>     load a persisted DOEM database (with history)
//   save <file>          write the current snapshot as OEM text
//   save doem <file>     persist the DOEM database (Section 5.1 encoding)
//   show                 print the current snapshot
//   show at <time>       print the snapshot at a time (e.g. 5Jan97)
//   show doem            print the annotated graph
//   cre <id> <value>     stage creNode   (value: 42, 3.5, "s", true, C)
//   upd <id> <value>     stage updNode
//   add <p> <label> <c>  stage addArc
//   rem <p> <label> <c>  stage remArc
//   pending              list staged operations
//   commit <time>        apply staged operations at <time>
//   query <chorel>       run a query (direct strategy)
//   tquery <chorel>      run a query (translated strategy)
//   history              print the extracted history
//   save history <file>  write the history as a replayable edit script
//   replay <file>        apply an edit script (@<time> + cre/upd/add/rem)
//   help                 this text
//   quit

#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "chorel/chorel.h"
#include "common/strings.h"
#include "doem/doem.h"
#include "encoding/doem_text.h"
#include "oem/history_text.h"
#include "oem/oem_text.h"

using namespace doem;

namespace {

class Shell {
 public:
  // Returns false when the session should end.
  bool Handle(const std::string& raw) {
    std::string line(StripWhitespace(raw));
    if (line.empty() || line[0] == '#') return true;
    std::istringstream in(line);
    std::string cmd;
    in >> cmd;
    std::string rest;
    std::getline(in, rest);
    rest = std::string(StripWhitespace(rest));

    if (cmd == "quit" || cmd == "exit") return false;
    Status s = Dispatch(cmd, rest);
    if (!s.ok()) {
      std::printf("error: %s\n", s.ToString().c_str());
      ++errors_;
    }
    return true;
  }

  int errors() const { return errors_; }

 private:
  Status Dispatch(const std::string& cmd, const std::string& rest) {
    if (cmd == "help") {
      std::printf(
          "commands: load save show cre upd add rem pending commit "
          "query tquery history replay help quit\n");
      return Status::OK();
    }
    if (cmd == "load") return Load(rest);
    if (cmd == "save") return Save(rest);
    if (cmd == "show") return Show(rest);
    if (cmd == "cre" || cmd == "upd") return StageNodeOp(cmd, rest);
    if (cmd == "add" || cmd == "rem") return StageArcOp(cmd, rest);
    if (cmd == "pending") {
      std::printf("%s\n", ChangeSetToString(pending_).c_str());
      return Status::OK();
    }
    if (cmd == "commit") return Commit(rest);
    if (cmd == "replay") return Replay(rest);
    if (cmd == "query") return RunQuery(rest, chorel::Strategy::kDirect);
    if (cmd == "tquery") {
      return RunQuery(rest, chorel::Strategy::kTranslated);
    }
    if (cmd == "history") {
      DOEM_RETURN_IF_ERROR(RequireDb());
      std::printf("%s", doem_->ExtractHistory().ToString().c_str());
      return Status::OK();
    }
    return Status::InvalidArgument("unknown command '" + cmd +
                                   "' (try help)");
  }

  Status RequireDb() {
    if (!doem_.has_value()) {
      return Status::InvalidArgument("no database loaded (use: load <file>)");
    }
    return Status::OK();
  }

  Status Load(const std::string& arg) {
    bool as_doem = arg.rfind("doem ", 0) == 0;
    std::string path = as_doem ? std::string(StripWhitespace(arg.substr(5)))
                               : arg;
    std::ifstream f(path);
    if (!f) return Status::NotFound("cannot open '" + path + "'");
    std::stringstream buf;
    buf << f.rdbuf();
    if (as_doem) {
      auto d = ParseDoemText(buf.str());
      if (!d.ok()) return d.status();
      doem_ = std::move(d).value();
    } else {
      auto db = ParseOemText(buf.str());
      if (!db.ok()) return db.status();
      auto d = DoemDatabase::FromSnapshot(std::move(db).value());
      if (!d.ok()) return d.status();
      doem_ = std::move(d).value();
    }
    pending_.clear();
    std::printf("loaded %zu objects, %zu arcs\n",
                doem_->graph().node_count(), doem_->graph().arc_count());
    return Status::OK();
  }

  Status Save(const std::string& arg) {
    DOEM_RETURN_IF_ERROR(RequireDb());
    if (arg.rfind("history ", 0) == 0) {
      std::string path(StripWhitespace(arg.substr(8)));
      std::ofstream f(path);
      if (!f) return Status::InvalidArgument("cannot write '" + path + "'");
      f << WriteHistoryText(doem_->ExtractHistory());
      std::printf("saved %s\n", path.c_str());
      return Status::OK();
    }
    bool as_doem = arg.rfind("doem ", 0) == 0;
    std::string path = as_doem ? std::string(StripWhitespace(arg.substr(5)))
                               : arg;
    std::ofstream f(path);
    if (!f) return Status::InvalidArgument("cannot write '" + path + "'");
    f << (as_doem ? WriteDoemText(*doem_)
                  : WriteOemText(doem_->CurrentSnapshot()));
    std::printf("saved %s\n", path.c_str());
    return Status::OK();
  }

  Status Show(const std::string& what) {
    DOEM_RETURN_IF_ERROR(RequireDb());
    if (what == "doem") {
      std::printf("%s", doem_->ToString().c_str());
      return Status::OK();
    }
    if (what.rfind("at ", 0) == 0) {
      Timestamp t;
      if (!Timestamp::Parse(what.substr(3), &t)) {
        return Status::ParseError("bad time '" + what.substr(3) + "'");
      }
      std::printf("%s", WriteOemText(doem_->SnapshotAt(t)).c_str());
      return Status::OK();
    }
    if (!what.empty()) {
      return Status::InvalidArgument("usage: show | show at <t> | show doem");
    }
    std::printf("%s", WriteOemText(doem_->CurrentSnapshot()).c_str());
    return Status::OK();
  }

  static Status ParseValueToken(const std::string& text, Value* out) {
    std::string t(StripWhitespace(text));
    if (t.empty()) return Status::ParseError("missing value");
    if (t == "C") {
      *out = Value::Complex();
      return Status::OK();
    }
    // Reuse the OEM text parser by parsing a one-node database.
    auto db = ParseOemText("&1 { v: &2 " + t + " }");
    if (!db.ok()) return Status::ParseError("bad value '" + t + "'");
    *out = *db->GetValue(2);
    return Status::OK();
  }

  Status StageNodeOp(const std::string& cmd, const std::string& rest) {
    DOEM_RETURN_IF_ERROR(RequireDb());
    std::istringstream in(rest);
    NodeId id = 0;
    in >> id;
    if (id == 0) return Status::ParseError("usage: " + cmd + " <id> <value>");
    std::string value_text;
    std::getline(in, value_text);
    Value v;
    DOEM_RETURN_IF_ERROR(ParseValueToken(value_text, &v));
    pending_.push_back(cmd == "cre" ? ChangeOp::CreNode(id, v)
                                    : ChangeOp::UpdNode(id, v));
    return Status::OK();
  }

  Status StageArcOp(const std::string& cmd, const std::string& rest) {
    DOEM_RETURN_IF_ERROR(RequireDb());
    std::istringstream in(rest);
    NodeId p = 0, c = 0;
    std::string label;
    in >> p >> label >> c;
    if (p == 0 || c == 0 || label.empty()) {
      return Status::ParseError("usage: " + cmd + " <parent> <label> <child>");
    }
    pending_.push_back(cmd == "add" ? ChangeOp::AddArc(p, label, c)
                                    : ChangeOp::RemArc(p, label, c));
    return Status::OK();
  }

  Status Commit(const std::string& rest) {
    DOEM_RETURN_IF_ERROR(RequireDb());
    Timestamp t;
    if (!Timestamp::Parse(rest, &t)) {
      return Status::ParseError("usage: commit <time>");
    }
    DOEM_RETURN_IF_ERROR(doem_->ApplyChangeSet(t, pending_));
    std::printf("committed %zu operation(s) at %s\n", pending_.size(),
                t.ToString().c_str());
    pending_.clear();
    return Status::OK();
  }

  Status Replay(const std::string& path) {
    DOEM_RETURN_IF_ERROR(RequireDb());
    std::ifstream f(path);
    if (!f) return Status::NotFound("cannot open '" + path + "'");
    std::stringstream buf;
    buf << f.rdbuf();
    auto h = ParseHistoryText(buf.str());
    if (!h.ok()) return h.status();
    DOEM_RETURN_IF_ERROR(doem_->ApplyHistory(*h));
    std::printf("replayed %zu change set(s)\n", h->size());
    return Status::OK();
  }

  Status RunQuery(const std::string& text, chorel::Strategy strategy) {
    DOEM_RETURN_IF_ERROR(RequireDb());
    auto r = chorel::RunChorel(*doem_, text, strategy);
    if (!r.ok()) return r.status();
    std::printf("%s", WriteOemText(r->answer).c_str());
    std::printf("(%zu row(s))\n", r->rows.size());
    return Status::OK();
  }

  std::optional<DoemDatabase> doem_;
  ChangeSet pending_;
  int errors_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  std::ifstream script;
  bool interactive = argc < 2;
  if (!interactive) {
    script.open(argv[1]);
    if (!script) {
      std::fprintf(stderr, "cannot open script '%s'\n", argv[1]);
      return 2;
    }
  }
  std::istream& in = interactive ? std::cin : script;
  Shell shell;
  std::string line;
  if (interactive) std::printf("doem> ");
  while (std::getline(in, line)) {
    if (!interactive) std::printf("doem> %s\n", line.c_str());
    if (!shell.Handle(line)) break;
    if (interactive) std::printf("doem> ");
  }
  return shell.errors() == 0 ? 0 : 1;
}
