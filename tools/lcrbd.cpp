// lcrbd — the LCRB query daemon.
//
// Speaks newline-delimited JSON (one message per line) over stdin/stdout by
// default, or over an AF_UNIX stream socket with --socket PATH. The socket
// path runs an epoll event loop: many clients at once, per-connection
// read/write buffering, and concurrent query execution on the service's
// dispatcher (queries on different datasets run in parallel; queries on the
// same dataset keep strict arrival order, so every client's reply stream is
// byte-identical to a sequential daemon). Replies always come back in the
// order the requests arrived on that connection.
//
// Messages are either control verbs handled here or QueryRequests handed to
// the in-process QueryService:
//
//   {"op":"open","dataset":"d","path":"graph.txt"}      load + register
//       optional: "undirected":true, "community_seed":1,
//                 "membership":"m.csv" (skip detection, use saved labels),
//                 "backend":"csr"|"ef" (v2 only: storage backend of the
//                 session; ef = Elias-Fano compressed, same outputs)
//   {"op":"close","dataset":"d"}                        drop the session
//   {"op":"datasets"}                                   list registered ids
//   {"op":"cancel","id":"X"}                            best-effort cancel of
//       a still-queued query submitted with that id on this connection;
//       replies {"op":"cancel","id":"X","ok":true,"cancelled":bool}
//   {"op":"stats"}                                      queue depth, in-flight
//       count, shed/expired counters, resident bytes; requires --meta (the
//       counters are nondeterministic), a deterministic error otherwise
//   {"op":"shutdown"}                                   ack, drain, exit
//   {"v":1|2,"op":"select"|"evaluate"|"info",...}       QueryRequest (see
//       src/service/request.h); the reply is QueryResult::to_json(), in the
//       same wire version the request declared
//
// Every reply is a single line. Replies omit the nondeterministic `meta`
// object unless the daemon runs with --meta, so a scripted session's output
// is byte-reproducible — the CI smoke jobs diff both a single-client and a
// concurrent multi-client session against golden files. Failures never drop
// a line: a request that cannot be parsed still produces one ok=false reply
// (v1: bare message string, v2: structured {code,category,retryable,message}
// — see src/service/errors.h).
//
// Flags: --socket PATH | --threads N | --max-bytes B | --meta
//        --max-concurrent N (dispatcher executors; 0 = auto, default 0)
//        --max-queued N --max-inflight N (default per-tenant quota; 0 = off)
#include <csignal>
#include <iostream>
#include <string>

#ifndef _WIN32
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

#include "community/io.h"
#include "community/partition.h"
#include "graph/io.h"
#include "service/query_service.h"
#include "util/args.h"
#include "util/epoll.h"
#include "util/error.h"

#ifdef LCRB_HAVE_EPOLL
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>
#endif

namespace {

using namespace lcrb;
using namespace lcrb::service;

/// Best-effort wire version of a message ("v" member; absent or malformed
/// counts as v1 so error replies stay backward compatible).
int declared_version(const JsonValue& msg) {
  try {
    return static_cast<int>(msg.get_int("v", 1));
  } catch (const Error&) {
    return 1;
  }
}

/// One ok=false reply line in the declared wire version: v1 is the bare
/// message string every pre-v2 client parses, v2 is the structured taxonomy
/// object (same shape QueryResult::to_json renders).
JsonValue error_reply(int version, ErrorCode code, const std::string& message) {
  JsonValue reply = JsonValue::object();
  reply.set("ok", false);
  if (version >= 2) {
    JsonValue err = JsonValue::object();
    err.set("code", to_string(code));
    err.set("category", error_category(code));
    err.set("retryable", error_retryable(code));
    err.set("message", message);
    reply.set("error", err);
  } else {
    reply.set("error", message);
  }
  return reply;
}

/// Handles one control verb. Returns the reply; sets `shutdown` on the
/// shutdown verb. `cancel_by_id` is the connection's cancel hook (null in
/// stdin mode, where queries run synchronously so nothing is ever queued).
JsonValue handle_control(QueryService& svc, const std::string& op,
                         const JsonValue& msg, bool include_meta,
                         const std::function<bool(const std::string&)>&
                             cancel_by_id,
                         bool& shutdown) {
  JsonValue reply = JsonValue::object();
  reply.set("op", op);
  if (op == "open") {
    const std::string dataset = msg.get_string("dataset", "");
    const std::string path = msg.get_string("path", "");
    if (dataset.empty() || path.empty()) {
      throw Error("open: 'dataset' and 'path' are required");
    }
    GraphBackend backend = GraphBackend::kCsr;
    if (msg.has("backend")) {
      // Wire-v2 field: v1 sessions must keep their exact historical surface,
      // so a v1 open carrying it is an error rather than a silent ignore.
      if (declared_version(msg) < 2) {
        throw Error("open: 'backend' requires wire version 2 (\"v\":2)");
      }
      backend = parse_graph_backend(msg.get_string("backend", ""));
    }
    std::shared_ptr<GraphSession> session;
    if (msg.has("membership")) {
      DiGraph g = load_edge_list(path, msg.get_bool("undirected", false));
      Partition p = load_membership(msg.get_string("membership", ""));
      session = svc.registry().open(dataset, to_backend(std::move(g), backend),
                                    std::move(p));
    } else {
      session = svc.open_dataset(
          dataset, path, msg.get_bool("undirected", false),
          static_cast<std::uint64_t>(msg.get_int("community_seed", 1)),
          backend);
    }
    reply.set("dataset", dataset);
    reply.set("ok", true);
    reply.set("num_nodes",
              static_cast<std::uint64_t>(session->graph().num_nodes()));
    reply.set("num_arcs",
              static_cast<std::uint64_t>(session->graph().num_edges()));
    reply.set("num_communities", static_cast<std::uint64_t>(
                                     session->partition().num_communities()));
  } else if (op == "close") {
    const std::string dataset = msg.get_string("dataset", "");
    reply.set("dataset", dataset);
    reply.set("ok", svc.registry().close(dataset));
  } else if (op == "datasets") {
    reply.set("ok", true);
    JsonValue ids = JsonValue::array();
    for (const std::string& name : svc.registry().datasets()) {
      ids.push_back(JsonValue(name));
    }
    reply.set("datasets", ids);
  } else if (op == "cancel") {
    const std::string id = msg.get_string("id", "");
    if (id.empty()) throw Error("cancel: 'id' is required");
    reply.set("id", id);
    reply.set("ok", true);
    // Best-effort: false just means the query already ran (or never existed)
    // — not an error, or a scripted session could not be replayed.
    reply.set("cancelled", cancel_by_id != nullptr && cancel_by_id(id));
  } else if (op == "stats") {
    if (!include_meta) {
      // The counters are nondeterministic (they depend on timing), so they
      // sit behind the same opt-in as the meta block; the refusal itself is
      // deterministic and golden-testable.
      throw ServiceError(ErrorCode::kInvalidArgument,
                         "stats requires --meta (counters are "
                         "nondeterministic)");
    }
    const ServiceStats s = svc.stats();
    reply.set("ok", true);
    reply.set("queue_depth", static_cast<std::uint64_t>(s.dispatch.queue_depth));
    reply.set("in_flight", static_cast<std::uint64_t>(s.dispatch.in_flight));
    reply.set("submitted", s.dispatch.submitted);
    reply.set("completed", s.dispatch.completed);
    reply.set("rejected", s.dispatch.rejected);
    reply.set("shed", s.dispatch.shed);
    reply.set("expired", s.dispatch.expired);
    reply.set("cancelled", s.dispatch.cancelled);
    reply.set("sessions", static_cast<std::uint64_t>(s.registry.sessions));
    reply.set("resident_bytes",
              static_cast<std::uint64_t>(s.registry.resident_bytes));
    reply.set("evictions", s.registry.evictions);
  } else if (op == "shutdown") {
    reply.set("ok", true);
    shutdown = true;
  } else {
    throw Error(
        "unknown op '" + op +
        "' (open|close|datasets|cancel|stats|shutdown|select|evaluate|info)");
  }
  return reply;
}

/// Processes one NDJSON line into one reply line, synchronously. Never
/// throws: every failure becomes an ok=false reply so a client script keeps
/// its 1:1 request/reply pairing. Used by stdin mode (and by the event loop
/// for control verbs, via the hooks).
std::string handle_line(QueryService& svc, const std::string& line,
                        bool include_meta, bool& shutdown) {
  int version = 1;
  try {
    const JsonValue msg = JsonValue::parse(line);
    if (!msg.is_object()) throw Error("expected a JSON object");
    version = declared_version(msg);
    const std::string op = msg.get_string("op", "");
    if (op == "select" || op == "evaluate" || op == "info") {
      const QueryRequest req = QueryRequest::from_json(msg);
      return svc.run(req).to_json(include_meta).dump();
    }
    return handle_control(svc, op, msg, include_meta, nullptr, shutdown)
        .dump();
  } catch (const ServiceError& e) {
    return error_reply(version, e.code(), e.what()).dump();
  } catch (const std::exception& e) {
    return error_reply(version, ErrorCode::kInvalidArgument, e.what()).dump();
  }
}

/// stdin/stdout mode: one reply line per input line, flushed immediately so
/// a pipe-driven client can interleave. Strictly sequential (svc.run on this
/// thread) — the byte-reproducible reference the socket path is tested
/// against.
int serve_stream(QueryService& svc, std::istream& in, std::ostream& out,
                 bool include_meta) {
  std::string line;
  bool shutdown = false;
  while (!shutdown && std::getline(in, line)) {
    if (line.empty()) continue;
    out << handle_line(svc, line, include_meta, shutdown) << "\n"
        << std::flush;
  }
  return 0;
}

#ifndef _WIN32

int make_listener(const std::string& path) {
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener < 0) throw Error("socket() failed");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw Error("--socket path too long");
  }
  path.copy(addr.sun_path, path.size());
  ::unlink(path.c_str());
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    throw Error("bind(" + path + ") failed");
  }
  if (::listen(listener, 64) != 0) throw Error("listen() failed");
  return listener;
}

#ifdef LCRB_HAVE_EPOLL

/// The epoll event loop. Single loop thread owns every connection; query
/// execution happens on the dispatcher's executor threads, which hand
/// finished replies back through a mutex-guarded completion queue plus an
/// eventfd wakeup — they never touch connection state.
///
/// Reply ordering: each request occupies one slot in its connection's FIFO;
/// control verbs fill their slot inline, queries fill it on completion, and
/// only the ready prefix is flushed — so replies always leave in request
/// order even when a later query (different dataset) finishes first.
class DaemonLoop {
 public:
  DaemonLoop(QueryService& svc, int listener, bool include_meta)
      : svc_(svc), listener_(listener), include_meta_(include_meta) {
    set_nonblocking(listener_);
    epoll_.add(listener_, EPOLLIN);
    epoll_.add(wake_.fd(), EPOLLIN);
  }

  int run() {
    while (!done_()) {
      for (const EpollEvent& ev : epoll_.wait(-1)) {
        if (ev.fd == listener_) {
          accept_clients();
        } else if (ev.fd == wake_.fd()) {
          wake_.drain();
          drain_completions();
        } else {
          on_client_event(ev);
        }
      }
    }
    for (auto& [fd, conn] : by_fd_) ::close(fd);
    // No slot is outstanding here, so no executor holds a callback into
    // this object; drain() just lets the dispatcher go idle before the
    // loop (and then the service) is torn down.
    svc_.drain();
    return 0;
  }

 private:
  struct Slot {
    bool ready = false;
    std::string text;
  };
  struct Conn {
    std::uint64_t id = 0;
    int fd = -1;
    bool closed = false;  ///< peer gone; slots drain, replies are discarded
    std::string rbuf;
    std::string wbuf;
    std::deque<Slot> slots;      ///< reply FIFO, one per request
    std::uint64_t base_seq = 0;  ///< seq of slots.front()
    std::uint64_t next_seq = 0;
    std::size_t outstanding = 0;  ///< submitted queries not yet completed
    /// id -> (seq, ticket) for still-pending queries; latest id wins.
    std::map<std::string, std::pair<std::uint64_t, QueryService::Ticket>>
        pending_ids;
  };
  struct Completion {
    std::uint64_t conn_id = 0;
    std::uint64_t seq = 0;
    std::string text;
  };

  bool done_() const {
    if (!shutting_down_) return false;
    for (const auto& [id, conn] : by_id_) {
      if (!conn->slots.empty() || !conn->wbuf.empty()) return false;
    }
    return true;
  }

  void accept_clients() {
    if (shutting_down_) return;
    for (;;) {
      const int fd = ::accept(listener_, nullptr, nullptr);
      if (fd < 0) return;  // EAGAIN (or transient error): back to epoll
      set_nonblocking(fd);
      auto conn = std::make_shared<Conn>();
      conn->id = ++next_conn_id_;
      conn->fd = fd;
      by_fd_[fd] = conn;
      by_id_[conn->id] = conn;
      epoll_.add(fd, EPOLLIN);
    }
  }

  void on_client_event(const EpollEvent& ev) {
    auto it = by_fd_.find(ev.fd);
    if (it == by_fd_.end()) return;  // already closed this iteration
    std::shared_ptr<Conn> conn = it->second;
    if ((ev.events & (EPOLLHUP | EPOLLERR)) != 0) {
      disconnect(*conn);
      return;
    }
    if ((ev.events & EPOLLOUT) != 0 && !write_some(*conn)) {
      disconnect(*conn);
      return;
    }
    if ((ev.events & EPOLLIN) != 0) read_some(*conn);
  }

  void read_some(Conn& conn) {
    char chunk[16384];
    for (;;) {
      const ssize_t n = ::read(conn.fd, chunk, sizeof(chunk));
      if (n == 0) {
        disconnect(conn);
        return;
      }
      if (n < 0) break;  // EAGAIN: consumed everything available
      conn.rbuf.append(chunk, static_cast<std::size_t>(n));
    }
    std::size_t start = 0;
    for (std::size_t nl = conn.rbuf.find('\n', start);
         nl != std::string::npos; nl = conn.rbuf.find('\n', start)) {
      const std::string line = conn.rbuf.substr(start, nl - start);
      start = nl + 1;
      if (!line.empty()) process_line(conn, line);
      if (conn.fd < 0) return;  // disconnected while processing
    }
    conn.rbuf.erase(0, start);
    flush(conn);
  }

  void process_line(Conn& conn, const std::string& line) {
    const std::uint64_t seq = conn.next_seq++;
    conn.slots.emplace_back();
    int version = 1;
    try {
      const JsonValue msg = JsonValue::parse(line);
      if (!msg.is_object()) throw Error("expected a JSON object");
      version = declared_version(msg);
      const std::string op = msg.get_string("op", "");
      if (op == "select" || op == "evaluate" || op == "info") {
        QueryRequest req = QueryRequest::from_json(msg);
        const std::string req_id = req.id;
        const std::uint64_t conn_id = conn.id;
        ++conn.outstanding;
        // The callback may fire on an executor thread at any point from here
        // on (or synchronously below, for admission rejections); it only
        // posts to the completion queue, never touches the connection.
        const QueryService::Ticket ticket = svc_.submit_async(
            std::move(req), [this, conn_id, seq](QueryResult result) {
              post_completion(conn_id, seq,
                              result.to_json(include_meta_).dump());
            });
        if (ticket != 0 && !req_id.empty()) {
          conn.pending_ids[req_id] = {seq, ticket};
        }
        return;
      }
      bool shutdown = false;
      const auto cancel_by_id = [this, &conn](const std::string& id) {
        auto it = conn.pending_ids.find(id);
        if (it == conn.pending_ids.end()) return false;
        // The cancelled query's own callback fires inside cancel() (on this
        // thread) and fills its slot through the completion queue as usual.
        return svc_.cancel(it->second.second);
      };
      fill_slot(conn, seq,
                handle_control(svc_, op, msg, include_meta_, cancel_by_id,
                               shutdown)
                    .dump());
      if (shutdown) begin_shutdown();
    } catch (const ServiceError& e) {
      fill_slot(conn, seq, error_reply(version, e.code(), e.what()).dump());
    } catch (const std::exception& e) {
      fill_slot(conn, seq,
                error_reply(version, ErrorCode::kInvalidArgument, e.what())
                    .dump());
    }
  }

  void begin_shutdown() {
    if (shutting_down_) return;
    shutting_down_ = true;
    epoll_.del(listener_);
    // Existing clients keep their in-flight and already-buffered requests —
    // drain semantics — but nothing new is read from them.
    for (auto& [fd, conn] : by_fd_) {
      epoll_.mod(fd, conn->wbuf.empty() ? 0u : std::uint32_t{EPOLLOUT});
      conn->rbuf.clear();
    }
  }

  void post_completion(std::uint64_t conn_id, std::uint64_t seq,
                       std::string text) {
    {
      std::lock_guard<std::mutex> lock(completions_mu_);
      completions_.push_back(Completion{conn_id, seq, std::move(text)});
    }
    wake_.signal();
  }

  void drain_completions() {
    std::vector<Completion> batch;
    {
      std::lock_guard<std::mutex> lock(completions_mu_);
      batch.swap(completions_);
    }
    for (Completion& c : batch) {
      auto it = by_id_.find(c.conn_id);
      if (it == by_id_.end()) continue;
      Conn& conn = *it->second;
      --conn.outstanding;
      for (auto pit = conn.pending_ids.begin();
           pit != conn.pending_ids.end(); ++pit) {
        if (pit->second.first == c.seq) {
          conn.pending_ids.erase(pit);
          break;
        }
      }
      fill_slot(conn, c.seq, std::move(c.text));
    }
  }

  void fill_slot(Conn& conn, std::uint64_t seq, std::string text) {
    Slot& slot = conn.slots[seq - conn.base_seq];
    slot.ready = true;
    slot.text = std::move(text);
    flush(conn);
  }

  /// Moves the ready reply prefix into the write buffer and pushes bytes
  /// until the socket would block. Reclaims fully-drained closed conns.
  void flush(Conn& conn) {
    while (!conn.slots.empty() && conn.slots.front().ready) {
      if (!conn.closed) {
        conn.wbuf += conn.slots.front().text;
        conn.wbuf += '\n';
      }
      conn.slots.pop_front();
      ++conn.base_seq;
    }
    if (conn.closed) {
      if (conn.slots.empty() && conn.outstanding == 0) {
        by_id_.erase(conn.id);
      }
      return;
    }
    if (!write_some(conn)) {
      disconnect(conn);
      return;
    }
    const std::uint32_t want =
        (shutting_down_ ? 0u : std::uint32_t{EPOLLIN}) |
        (conn.wbuf.empty() ? 0u : std::uint32_t{EPOLLOUT});
    epoll_.mod(conn.fd, want);
  }

  /// False on a hard write error (peer gone).
  bool write_some(Conn& conn) {
    while (!conn.wbuf.empty()) {
      const ssize_t n = ::write(conn.fd, conn.wbuf.data(), conn.wbuf.size());
      if (n > 0) {
        conn.wbuf.erase(0, static_cast<std::size_t>(n));
        continue;
      }
      return errno == EAGAIN || errno == EWOULDBLOCK;
    }
    return true;
  }

  void disconnect(Conn& conn) {
    if (conn.fd < 0) return;
    epoll_.del(conn.fd);
    ::close(conn.fd);
    by_fd_.erase(conn.fd);
    conn.fd = -1;
    conn.closed = true;
    conn.rbuf.clear();
    conn.wbuf.clear();
    if (conn.slots.empty() && conn.outstanding == 0) {
      by_id_.erase(conn.id);  // invalidates `conn`; must be the last touch
    }
  }

  QueryService& svc_;
  int listener_;
  bool include_meta_;
  Epoll epoll_;
  EventFd wake_;
  bool shutting_down_ = false;
  std::uint64_t next_conn_id_ = 0;
  std::map<int, std::shared_ptr<Conn>> by_fd_;
  std::map<std::uint64_t, std::shared_ptr<Conn>> by_id_;
  std::mutex completions_mu_;
  std::vector<Completion> completions_;
};

#else  // !LCRB_HAVE_EPOLL

bool write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Non-Linux POSIX fallback: one client at a time, strictly sequential.
/// Returns true to keep accepting, false after a shutdown verb.
bool serve_client(QueryService& svc, int fd, bool include_meta) {
  std::string buf;
  char chunk[4096];
  bool shutdown = false;
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) return true;  // client gone; keep the daemon up
    buf.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (std::size_t nl = buf.find('\n', start); nl != std::string::npos;
         nl = buf.find('\n', start)) {
      const std::string line = buf.substr(start, nl - start);
      start = nl + 1;
      if (line.empty()) continue;
      if (!write_all(fd, handle_line(svc, line, include_meta, shutdown) +
                             "\n")) {
        return true;
      }
      if (shutdown) return false;
    }
    buf.erase(0, start);
  }
}

#endif  // LCRB_HAVE_EPOLL

int serve_socket(QueryService& svc, const std::string& path,
                 bool include_meta) {
  ::signal(SIGPIPE, SIG_IGN);  // write errors are handled per call
  const int listener = make_listener(path);
  std::cerr << "lcrbd listening on " << path << "\n";
  int rc = 0;
#ifdef LCRB_HAVE_EPOLL
  rc = DaemonLoop(svc, listener, include_meta).run();
#else
  bool keep_going = true;
  while (keep_going) {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) continue;
    keep_going = serve_client(svc, fd, include_meta);
    ::close(fd);
  }
#endif
  ::close(listener);
  ::unlink(path.c_str());
  return rc;
}

#endif  // !_WIN32

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv);
  try {
    ServiceConfig cfg;
    cfg.threads = args.get_count<std::size_t>("threads", 0);
    cfg.max_resident_bytes = args.get_count<std::size_t>(
        "max-bytes", SessionRegistry::kDefaultMaxBytes);
    cfg.max_concurrent = args.get_count<std::size_t>("max-concurrent", 0);
    cfg.default_quota.max_queued = args.get_count<std::size_t>("max-queued", 0);
    cfg.default_quota.max_in_flight =
        args.get_count<std::size_t>("max-inflight", 0);
    const bool include_meta = args.get_bool("meta");
    QueryService svc(cfg);
    if (args.has("socket")) {
#ifndef _WIN32
      return serve_socket(svc, args.get_string("socket", ""), include_meta);
#else
      throw lcrb::Error("--socket is not supported on this platform");
#endif
    }
    return serve_stream(svc, std::cin, std::cout, include_meta);
  } catch (const std::exception& e) {
    std::cerr << "lcrbd: " << e.what() << "\n";
    return 1;
  }
}
