// Load generator: one process, at most four threads (the sender below, the
// OsNetwork event loop, and the workers of its two local nodes), one TCP
// connection per SUT process.  Portal sessions are multiplexed onto the two
// nodes and speak the portal HTTP directly; every reply and every delivered
// event is validated.
//
// Open loop: arrivals are a seeded Poisson process and each request is
// timed from when it was due, so a stall is charged to every request it
// delays.  The sender records how late it ran.
#include <dirent.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <thread>

#include "bench.h"
#include "core/server.h"
#include "http/http_message.h"
#include "net/os_network.h"
#include "proto/messages.h"

namespace perfbench {

namespace {

enum Op : std::uint8_t {
  op_login, op_select, op_push, op_lock,  // set-up
  op_poll, op_get, op_set, op_post,       // measured mix
  op_count
};
const char* const kOpName[op_count] = {"login", "select", "enable_push",
                                       "acquire_lock", "poll", "get_param",
                                       "set_param", "post"};
constexpr std::uint8_t kSetupPhase = 255;

enum class Kind { poller, steerer, watcher, poster };

struct Session {
  int node = 0;         // generator node (0/1)
  int proc = 0;         // SUT process whose server it logs in to
  int app = 0;          // application index
  Kind kind = Kind::poller;
  bool push = false;
  bool remote = false;  // app hosted by another server (peer link)
  std::string user;
  std::string cookie;
  security::SessionToken token;
  PollStream stream;
};

struct Pending {
  // 0 free, 1 sent, 2 reply being handled, 3 reply handled (fields final)
  std::atomic<std::uint8_t> state{0};
  std::uint8_t op = 0;
  std::uint8_t phase = 0;
  bool ok = false;         // reply validated
  bool resp_seen = false;  // set_param: its response event arrived
  std::int32_t session = 0;
  std::int64_t due = 0;
  std::int64_t done = 0;  // reply decoded
  double value = 0;
};

struct Phase {
  double rate = 0;
  double seconds = 0;
  double sut_busy = 0;  // SUT CPU seconds per wall second (ladder steps)
  bool ok = false;      // met the ladder's criteria
  std::uint64_t first_rid = 0;
  std::uint64_t end_rid = 0;
  std::vector<std::int64_t> late;
};

/// State owned by one generator node's worker thread.  The sample
/// vectors are also read by the sender between ladder steps, hence `mu`.
struct NodeState {
  std::mutex mu;
  // (receive time, latency) by phase.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> deliv, rtt;
  std::atomic<std::uint64_t> nfail{0};
  std::map<std::pair<int, int>, PushStream> push;  // (proc, app) -> stream
  std::map<std::pair<int, int>, std::map<std::uint64_t, std::uint64_t>>
      digests;  // (proc, app) -> seq -> event digest (federation check)
  std::map<std::string, std::uint64_t> failures;
  std::uint64_t polls = 0, poll_events = 0, empty_polls = 0, pushes = 0;
  std::uint64_t resp_bytes = 0, replies = 0;
  util::LatencyHistogram decode_ns;
  std::vector<util::Bytes> poll_bodies;  // replay capture (poll and push)
  std::vector<security::SessionToken> tokens;
  int push_enables_left = 0;
  bool push_armed = false;
  // Fan-out sends every subscriber on a node the same bytes back to back;
  // a copy identical to the previous push reuses its decode.
  util::Bytes last_push;
  int last_push_proc = -1;
  proto::PollReply last_push_reply;
};

struct Summary {
  std::size_t n = 0;
  double p50 = 0, p99 = 0, phi = 0, hi_q = 0;
  std::vector<double> slice_p99s;
  double p99_sliced = 0;
};

/// p99s of consecutive slices (in time order) of at least 1000 samples
/// each, at most 50.  Host stalls (vCPU preemption of 10-50 ms) hit a
/// fraction of the slices; the median over slices is the p99 the system
/// gives between them.
std::vector<double> slice_p99s(const std::vector<std::int64_t>& in_time_order) {
  const std::size_t n = in_time_order.size();
  const std::size_t slices = std::clamp<std::size_t>(n / 1000, 1, 50);
  std::vector<double> p99s;
  for (std::size_t i = 0; i < slices; ++i) {
    const auto b = in_time_order.begin() + static_cast<std::ptrdiff_t>(n * i / slices);
    const auto e = in_time_order.begin() + static_cast<std::ptrdiff_t>(n * (i + 1) / slices);
    p99s.push_back(percentile(std::vector<std::int64_t>(b, e), 0.99));
  }
  return p99s;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size();
  return m % 2 == 1 ? v[m / 2] : (v[m / 2 - 1] + v[m / 2]) / 2;
}

double sliced_p99(const std::vector<std::int64_t>& in_time_order) {
  return median(slice_p99s(in_time_order));
}

/// Latencies of both nodes' (time, latency) samples, in time order.
std::vector<std::int64_t> in_time_order(
    std::vector<std::pair<std::int64_t, std::int64_t>> samples) {
  std::sort(samples.begin(), samples.end());
  std::vector<std::int64_t> out;
  out.reserve(samples.size());
  for (const auto& s : samples) out.push_back(s.second);
  return out;
}

/// `v` must be in time order (for the sliced p99).
Summary summarize(std::vector<std::int64_t> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  s.slice_p99s = slice_p99s(v);
  s.p99_sliced = median(s.slice_p99s);
  std::sort(v.begin(), v.end());
  const auto at = [&v](double q) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return static_cast<double>(v[std::min(rank == 0 ? 0 : rank - 1,
                                          v.size() - 1)]);
  };
  s.p50 = at(0.5);
  s.p99 = at(0.99);
  // Highest percentile with at least ten samples beyond it.
  s.hi_q = v.size() > 10 ? 1.0 - 10.0 / static_cast<double>(v.size()) : 0.5;
  s.phi = at(s.hi_q);
  return s;
}

std::string summary_json(const Summary& s) {
  return JsonObj()
      .num("n", static_cast<std::uint64_t>(s.n))
      .num("p50_ns", s.p50)
      .num("p99_ns", s.p99)
      .num("hi_q", s.hi_q)
      .num("hi_ns", s.phi)
      .num("p99_sliced_ns", s.p99_sliced)
      .raw("slice_p99s_ns", [&s] {
        std::string a = "[";
        for (const double x : s.slice_p99s) {
          if (a.size() > 1) a += ",";
          a += std::to_string(static_cast<std::int64_t>(x));
        }
        return a + "]";
      }())
      .done();
}

/// Per-thread CPU seconds of this process, by tid.
std::map<int, double> thread_cpu() {
  std::map<int, double> out;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return out;
  while (dirent* e = readdir(dir)) {
    if (e->d_name[0] == '.') continue;
    std::ifstream in(std::string("/proc/self/task/") + e->d_name + "/stat");
    std::string line;
    std::getline(in, line);
    const auto close = line.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream rest(line.substr(close + 2));
    std::string f;
    double ticks = 0;
    for (int i = 3; i <= 15 && (rest >> f); ++i) {
      if (i == 14 || i == 15) ticks += std::strtod(f.c_str(), nullptr);
    }
    out[std::atoi(e->d_name)] = ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
  }
  closedir(dir);
  return out;
}

/// A numeric field of a flat JSON object (-1 when absent).
double json_field(const std::string& json, const char* key) {
  const std::string k = std::string("\"") + key + "\":";
  const auto at = json.find(k);
  return at == std::string::npos ? -1 : std::atof(json.c_str() + at + k.size());
}

class Generator;

class GenNode final : public net::MessageHandler {
 public:
  GenNode(Generator& g, int idx) : g_(g), idx_(idx) {}
  void on_message(const net::Message& msg) override;

 private:
  Generator& g_;
  int idx_;
};

class Generator {
 public:
  explicit Generator(const Params& p);
  int run();
  void on_message(int node, const net::Message& msg);

 private:
  // -- set-up -----------------------------------------------------------------
  void build_sessions();
  std::string ctl_call(int proc, char op, util::Bytes extra = {});
  bool wait_sut_ready();
  bool setup_batch(Op op, const std::vector<int>& sessions);
  bool probe_apps();
  // -- requests ---------------------------------------------------------------
  std::uint64_t send_op(Op op, int session, std::uint8_t phase,
                        std::int64_t due);
  void run_phase(std::uint8_t phase, double rate, double seconds);
  void drain(std::uint64_t first, std::uint64_t end, std::int64_t budget_ns);
  std::uint64_t outstanding(std::uint64_t first, std::uint64_t end) const;
  std::vector<std::int64_t> latencies(const Phase& ph) const;
  // -- replies ------------------------------------------------------------------
  void fail(NodeState& ns, const std::string& why) {
    const std::lock_guard<std::mutex> lock(ns.mu);
    ++ns.failures[why];
    ns.nfail.fetch_add(1, std::memory_order_relaxed);
  }
  bool judge(Phase& ph, std::uint64_t fails_before);
  std::uint64_t failures() const {
    return ns_[0].nfail.load() + ns_[1].nfail.load();
  }
  void on_reply(int node, const net::Message& msg, std::int64_t t_recv);
  void on_push(int node, int proc, const proto::PollReply& push,
               std::int64_t t_recv);
  void on_event(int node, const proto::ClientEvent& ev, std::int64_t t_recv,
                bool pushed);
  int proc_of_node(std::uint32_t node) const;
  // -- results ----------------------------------------------------------------
  std::string echo_rtt();
  std::string result_json(const std::string& error, const std::string& echo);

  Params p_;
  bool traced_;
  net::OsNetwork net_;
  GenNode node0_{*this, 0}, node1_{*this, 1};
  net::NodeId gen_ids_[2]{net::NodeId{0}, net::NodeId{0}};
  std::vector<net::NodeId> server_ids_, ctl_ids_;
  std::uint32_t host_server_ = 0;  // node id of process 0's server
  std::vector<Session> sessions_;
  std::vector<std::vector<int>> eligible_;  // by op: sessions that may issue
  std::vector<proto::AppId> app_ids_;
  // Request records by request id, in fixed chunks allocated by the sender
  // before it sends the first id of a chunk (so readers never race an
  // allocation: an id reaches a worker only after it was sent).
  static constexpr int kChunkBits = 16;
  static constexpr std::uint64_t kMaxChunks = 256;
  std::unique_ptr<std::unique_ptr<Pending[]>[]> chunks_{
      new std::unique_ptr<Pending[]>[kMaxChunks]};
  Pending& pend(std::uint64_t rid) const {
    return chunks_[rid >> kChunkBits][rid & ((1u << kChunkBits) - 1)];
  }
  std::uint64_t pend_cap_ = kMaxChunks << kChunkBits;
  /// The record of an id read off the wire; nullptr when never issued.
  Pending* find_pending(std::uint64_t rid) const {
    if (rid == 0 || rid >= pend_cap_ || !chunks_[rid >> kChunkBits]) {
      return nullptr;
    }
    return &pend(rid);
  }
  std::uint64_t next_rid_ = 1;
  NodeState ns_[2];
  std::atomic<int> setup_left_{0};
  std::vector<Phase> phases_;
  std::mt19937_64 rng_;
  // Control-channel replies (one outstanding call at a time).
  std::mutex ctl_mu_;
  std::condition_variable ctl_cv_;
  std::string ctl_reply_;
  bool ctl_ready_ = false;
  // Probe login result (front server's app directory).
  std::vector<proto::AppInfo> probe_apps_;
  // Traced run.
  SpanLog spans_{2000000};
  util::LatencyHistogram encode_ns_;
  std::uint64_t req_bytes_ = 0, reqs_ = 0;
  std::vector<util::Bytes> captured_requests_;
  std::int64_t setup_done_ns_ = 0;
  std::map<std::string, std::uint64_t> window_failures_;
  std::string sut_start_[2], sut_end_[2];
  double window_s_ = 0, gen_cpu_s_ = 0, gen_max_thread_share_ = 0;
  std::uint64_t window_completed_ = 0;
};

void GenNode::on_message(const net::Message& msg) { g_.on_message(idx_, msg); }

Generator::Generator(const Params& p)
    : p_(p),
      traced_(p.num("trace") != 0),
      net_([] {
        net::OsNetworkConfig cfg;
        cfg.listen = false;
        return cfg;
      }()),
      rng_(static_cast<std::uint64_t>(p.num("seed", 1)) * 0x9E3779B97F4A7C15ULL +
           17) {
  const std::vector<double> ports = p.list("ports");
  for (const NodeSpec& s : topology(p)) {
    if (s.role == Role::gen) {
      const int g = s.name == "gen0" ? 0 : 1;
      gen_ids_[g] = net_.add_node(s.name, g == 0 ? &node0_ : &node1_,
                                  net::DomainId{9});
      continue;
    }
    const net::NodeId id = net_.add_remote(
        s.name, "127.0.0.1",
        static_cast<std::uint16_t>(ports.at(static_cast<std::size_t>(s.proc))),
        net::DomainId{static_cast<std::uint32_t>(s.proc + 1)});
    if (s.role == Role::server) server_ids_.push_back(id);
    if (s.role == Role::ctl) ctl_ids_.push_back(id);
  }
  host_server_ = server_ids_.at(0).value();
  build_sessions();
}

int Generator::proc_of_node(std::uint32_t node) const {
  for (std::size_t i = 0; i < server_ids_.size(); ++i) {
    if (server_ids_[i].value() == node) return static_cast<int>(i);
  }
  return -1;
}

// Sessions per application: steerers (push, one shared steering user per
// app), watchers (push), posters (push) and pollers (poll-and-pull), all at
// the front server; plus host watchers (push) at the host when the apps
// are reached over the peer link.
void Generator::build_sessions() {
  const int apps = static_cast<int>(p_.num("apps", 1));
  const int front = static_cast<int>(p_.num("procs", 1)) - 1;
  int user = 0;
  const auto add = [&](int app, Kind kind, bool push, int proc) {
    Session s;
    s.node = static_cast<int>(sessions_.size() % 2);
    s.proc = proc;
    s.app = app;
    s.kind = kind;
    s.push = push;
    s.remote = proc != 0;
    s.user = kind == Kind::steerer ? "s" + std::to_string(app)
                                   : "u" + std::to_string(user++);
    sessions_.push_back(std::move(s));
  };
  for (int a = 0; a < apps; ++a) {
    for (int i = 0; i < p_.num("steerers"); ++i) add(a, Kind::steerer, true, front);
    for (int i = 0; i < p_.num("watchers"); ++i) add(a, Kind::watcher, true, front);
    for (int i = 0; i < p_.num("posters"); ++i) add(a, Kind::poster, true, front);
    for (int i = 0; i < p_.num("pollers"); ++i) add(a, Kind::poller, false, front);
    if (front != 0) {
      for (int i = 0; i < p_.num("host_watchers"); ++i) {
        add(a, Kind::watcher, true, 0);
      }
    }
  }
  eligible_.assign(op_count, {});
  for (int i = 0; i < static_cast<int>(sessions_.size()); ++i) {
    const Session& s = sessions_[static_cast<std::size_t>(i)];
    if (s.proc != front) continue;  // host watchers only watch
    if (s.kind == Kind::poller) {
      eligible_[op_poll].push_back(i);
      eligible_[op_get].push_back(i);
    }
    if (s.kind == Kind::steerer) eligible_[op_set].push_back(i);
    if (s.kind == Kind::poster) eligible_[op_post].push_back(i);
  }
  if (eligible_[op_post].empty()) eligible_[op_post] = eligible_[op_poll];
}

std::string Generator::ctl_call(int proc, char op, util::Bytes extra) {
  util::Bytes msg;
  msg.push_back(static_cast<std::uint8_t>(op));
  msg.insert(msg.end(), extra.begin(), extra.end());
  std::unique_lock<std::mutex> lock(ctl_mu_);
  ctl_ready_ = false;
  lock.unlock();
  net_.send(gen_ids_[0], ctl_ids_.at(static_cast<std::size_t>(proc)),
            net::Channel::control, std::move(msg));
  lock.lock();
  if (!ctl_cv_.wait_for(lock, std::chrono::seconds(10),
                        [this] { return ctl_ready_; })) {
    return "";
  }
  return ctl_reply_;
}

bool Generator::wait_sut_ready() {
  const int procs = static_cast<int>(server_ids_.size());
  const auto deadline = mono_ns() + util::seconds(60);
  while (mono_ns() < deadline) {
    bool ready = true;
    for (int proc = 0; proc < procs && ready; ++proc) {
      const std::string r = ctl_call(proc, 'Q');
      const double want_apps = proc == 0 ? static_cast<double>(p_.num("apps", 1)) : 1;
      ready = json_field(r, "apps") == want_apps &&
              (procs == 1 || json_field(r, "peers") >= 1);
    }
    if (ready) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

std::uint64_t Generator::send_op(Op op, int si, std::uint8_t phase,
                                 std::int64_t due) {
  if (next_rid_ >= pend_cap_) return 0;
  const std::uint64_t rid = next_rid_++;
  auto& chunk = chunks_[rid >> kChunkBits];
  if (!chunk) chunk = std::make_unique<Pending[]>(std::size_t{1} << kChunkBits);
  Session& s = sessions_[static_cast<std::size_t>(si)];
  Pending& pd = pend(rid);
  pd.op = op;
  pd.phase = phase;
  pd.session = si;
  pd.due = due;
  const std::int64_t t0 = mono_ns();
  util::Bytes body;
  const char* path = nullptr;
  const proto::AppId app =
      app_ids_.empty() ? proto::AppId{} : app_ids_[static_cast<std::size_t>(s.app)];
  switch (op) {
    case op_login: {
      proto::LoginRequest r;
      r.user = s.user;
      body = proto::encode_body(r);
      path = core::kPathLogin;
      break;
    }
    case op_select: {
      proto::SelectAppRequest r{s.token, app};
      body = proto::encode_body(r);
      path = core::kPathSelect;
      break;
    }
    case op_push: {
      proto::GroupRequest r{s.token, app, proto::GroupOp::enable_push, ""};
      body = proto::encode_body(r);
      path = core::kPathGroup;
      break;
    }
    case op_lock: {
      proto::CommandRequest r;
      r.token = s.token;
      r.app_id = app;
      r.request_id = rid;
      r.kind = proto::CommandKind::acquire_lock;
      body = proto::encode_body(r);
      path = core::kPathCommand;
      break;
    }
    case op_poll: {
      proto::PollRequest r;
      r.token = s.token;
      r.app_id = app;
      body = proto::encode_body(r);
      path = core::kPathPoll;
      break;
    }
    case op_get:
    case op_set: {
      proto::CommandRequest r;
      r.token = s.token;
      r.app_id = app;
      r.request_id = rid;
      r.kind = op == op_get ? proto::CommandKind::get_param
                            : proto::CommandKind::set_param;
      r.param = "param_0";
      if (op == op_set) {
        pd.value = 1.0 + static_cast<double>(rid % 4096) * 0.25;
        r.value = proto::ParamValue{pd.value};
      }
      body = proto::encode_body(r);
      path = core::kPathCommand;
      break;
    }
    case op_post: {
      proto::CollabPost r;
      r.token = s.token;
      r.app_id = app;
      r.kind = proto::EventKind::chat;
      // Carries the phase and the send time for delivery latency.
      r.text = "p" + std::to_string(phase) + ":" + std::to_string(t0);
      body = proto::encode_body(r);
      path = core::kPathCollabPost;
      break;
    }
    default:
      return 0;
  }
  http::HttpRequest req;
  req.method = http::Method::post;
  req.path = path;
  req.headers.set("Content-Type", "application/x-discover");
  req.headers.set("X-Request-Id", std::to_string(rid));
  if (!s.cookie.empty()) req.headers.set("Cookie", s.cookie);
  req.body = std::move(body);
  util::Bytes wire = http::serialize(req);
  const std::int64_t t1 = mono_ns();
  encode_ns_.record(t1 - t0);
  req_bytes_ += wire.size();
  ++reqs_;
  if (traced_) {
    spans_.add("workload.encode", t0, t1 - t0, rid);
    if (captured_requests_.size() < 4000) captured_requests_.push_back(wire);
  }
  pd.state.store(1, std::memory_order_release);
  net_.send(gen_ids_[s.node], server_ids_[static_cast<std::size_t>(s.proc)],
            net::Channel::http, std::move(wire));
  return rid;
}

bool Generator::setup_batch(Op op, const std::vector<int>& sessions) {
  if (sessions.empty()) return true;
  setup_left_.store(static_cast<int>(sessions.size()));
  for (const int si : sessions) send_op(op, si, kSetupPhase, mono_ns());
  const auto deadline = mono_ns() + util::seconds(30);
  while (setup_left_.load(std::memory_order_acquire) > 0) {
    if (mono_ns() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return failures() == 0;
}

// Logs in one session at the front server until its directory lists every
// application hosted by process 0 (over the peer link in federation).
bool Generator::probe_apps() {
  const int apps = static_cast<int>(p_.num("apps", 1));
  const auto deadline = mono_ns() + util::seconds(30);
  while (mono_ns() < deadline) {
    probe_apps_.clear();
    if (!setup_batch(op_login, {0})) return false;
    app_ids_.clear();
    for (const auto& info : probe_apps_) {
      if (info.id.host == host_server_) app_ids_.push_back(info.id);
    }
    if (static_cast<int>(app_ids_.size()) == apps) {
      std::sort(app_ids_.begin(), app_ids_.end());
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

void Generator::on_message(int node, const net::Message& msg) {
  const std::int64_t t_recv = mono_ns();
  if (msg.channel == net::Channel::control) {
    const util::Bytes& b = msg.payload;
    const std::lock_guard<std::mutex> lock(ctl_mu_);
    ctl_reply_.assign(b.begin() + (b.empty() ? 0 : 1), b.end());
    ctl_ready_ = true;
    ctl_cv_.notify_all();
    return;
  }
  if (msg.channel == net::Channel::http) on_reply(node, msg, t_recv);
}

void Generator::on_reply(int node, const net::Message& msg,
                         std::int64_t t_recv) {
  NodeState& ns = ns_[node];
  const std::int64_t t0 = mono_ns();
  const util::Bytes& wire = msg.payload;
  const int src_proc = proc_of_node(msg.src.value());
  ns.resp_bytes += wire.size();
  if (src_proc == ns.last_push_proc && wire == ns.last_push) {
    on_push(node, src_proc, ns.last_push_reply, t_recv);
    return;
  }
  auto parsed = http::parse_response(wire);
  if (!parsed.ok()) {
    fail(ns, "unparseable http reply");
    return;
  }
  http::HttpResponse& resp = parsed.value();
  if (resp.headers.get("X-Push")) {
    try {
      ns.last_push_reply = proto::decode_poll_reply(resp.body);
    } catch (const wire::DecodeError&) {
      ns.last_push_proc = -1;
      fail(ns, "push does not decode");
      return;
    }
    ns.last_push = wire;
    ns.last_push_proc = src_proc;
    if (traced_ && ns.poll_bodies.size() < 2000) {
      ns.poll_bodies.push_back(resp.body);
    }
    on_push(node, src_proc, ns.last_push_reply, t_recv);
    return;
  }
  const auto rid_hdr = resp.headers.get("X-Request-Id");
  const std::uint64_t rid =
      rid_hdr ? std::strtoull(rid_hdr->c_str(), nullptr, 10) : 0;
  Pending* const found = find_pending(rid);
  if (found == nullptr) {
    fail(ns, "reply without a known request id");
    return;
  }
  Pending& pd = *found;
  std::uint8_t expect = 1;
  if (!pd.state.compare_exchange_strong(expect, 2, std::memory_order_acq_rel)) {
    fail(ns, "duplicate reply or unknown request id");
    return;
  }
  Session& s = sessions_[static_cast<std::size_t>(pd.session)];
  if (s.node != node) fail(ns, "reply reached another session's node");
  ++ns.replies;
  std::string bad;
  try {
    switch (pd.op) {
      case op_login: {
        const auto r = proto::decode_login_reply(resp.body);
        if (!r.ok) {
          bad = "login refused: " + r.message;
          break;
        }
        s.token = r.token;
        if (const auto c = resp.headers.get("Set-Cookie")) s.cookie = *c;
        if (ns.tokens.size() < 64) ns.tokens.push_back(r.token);
        if (pd.session == 0) probe_apps_ = r.applications;
        break;
      }
      case op_select: {
        const auto r = proto::decode_select_app_reply(resp.body);
        if (!r.ok) bad = "select refused: " + r.message;
        // Host sessions see every event after the select's history seq;
        // a remote server's later subscribers join its stream mid-flight.
        s.stream.arm(s.remote ? 0 : r.history_seq + 1);
        break;
      }
      case op_push:
      case op_post: {
        const auto r = proto::decode_collab_ack(resp.body);
        if (!r.ok) bad = std::string(kOpName[pd.op]) + " refused: " + r.message;
        if (pd.op == op_push && --ns.push_enables_left == 0) {
          ns.push_armed = true;
        }
        break;
      }
      case op_lock:
      case op_get:
      case op_set: {
        const auto r = proto::decode_command_ack(resp.body);
        if (!r.accepted) {
          bad = std::string(kOpName[pd.op]) + " rejected: " + r.message;
        } else if (r.request_id != rid) {
          bad = "command ack echoes the wrong request id";
        }
        break;
      }
      case op_poll: {
        const auto r = proto::decode_poll_reply(resp.body);
        if (!r.ok) {
          bad = "poll refused: " + r.message;
          break;
        }
        ++ns.polls;
        ns.poll_events += r.events.size();
        if (r.events.empty()) ++ns.empty_polls;
        if (traced_ && ns.poll_bodies.size() < 2000 && !r.events.empty()) {
          ns.poll_bodies.push_back(resp.body);
        }
        for (const auto& ev : r.events) {
          if (const char* err = s.stream.accept(ev)) fail(ns, err);
          on_event(node, ev, t_recv, false);
        }
        break;
      }
      default:
        bad = "unexpected reply";
    }
  } catch (const wire::DecodeError&) {
    bad = std::string(kOpName[pd.op]) + " reply does not decode";
  }
  if (resp.status != 200 && bad.empty()) {
    bad = std::string(kOpName[pd.op]) + " http status " +
          std::to_string(resp.status);
  }
  if (!bad.empty()) fail(ns, bad);
  const std::int64_t t1 = mono_ns();
  ns.decode_ns.record(t1 - t0);
  if (pd.phase == kSetupPhase) {
    pd.ok = bad.empty();
    pd.state.store(3, std::memory_order_release);
    setup_left_.fetch_sub(1, std::memory_order_acq_rel);
    return;
  }
  pd.ok = bad.empty();
  pd.done = t1;
  pd.state.store(3, std::memory_order_release);
  if (traced_) {
    spans_.add("workload.decode", t0, t1 - t0, rid);
    spans_.add("gen.request", pd.due, t1 - pd.due, rid);
  }
}

void Generator::on_push(int node, int proc, const proto::PollReply& push,
                        std::int64_t t_recv) {
  NodeState& ns = ns_[node];
  ++ns.pushes;
  for (const auto& ev : push.events) {
    if (ns.push_armed) {
      int app = -1;
      for (std::size_t a = 0; a < app_ids_.size(); ++a) {
        if (app_ids_[a] == ev.app) app = static_cast<int>(a);
      }
      const auto key = std::make_pair(proc, app);
      const auto it = ns.push.find(key);
      if (it == ns.push.end()) {
        fail(ns, "push for an app no session here watches");
      } else if (const char* err = it->second.accept(ev.seq)) {
        fail(ns, err);
      }
      if (server_ids_.size() > 1) {
        auto& seen = ns.digests[key];
        if (seen.size() < 200000) seen.emplace(ev.seq, event_digest(ev));
      }
    }
    on_event(node, ev, t_recv, true);
  }
}

void Generator::on_event(int node, const proto::ClientEvent& ev,
                         std::int64_t t_recv, bool pushed) {
  NodeState& ns = ns_[node];
  if (ev.kind == proto::EventKind::chat && ev.text.size() > 1 &&
      ev.text[0] == 'p') {
    const auto colon = ev.text.find(':');
    const auto phase = std::strtoul(ev.text.c_str() + 1, nullptr, 10);
    const std::int64_t sent =
        std::strtoll(ev.text.c_str() + colon + 1, nullptr, 10);
    const std::lock_guard<std::mutex> lock(ns.mu);
    if (colon != std::string::npos && phase < ns.deliv.size()) {
      ns.deliv[phase].emplace_back(t_recv, t_recv - sent);
    }
    return;
  }
  if (!pushed || (ev.kind != proto::EventKind::response &&
                  ev.kind != proto::EventKind::error)) {
    return;
  }
  Pending* const found = find_pending(ev.request_id);
  if (found == nullptr) return;
  Pending& pd = *found;
  if (pd.state.load(std::memory_order_acquire) == 0 || pd.op != op_set ||
      pd.resp_seen ||
      sessions_[static_cast<std::size_t>(pd.session)].node != node) {
    return;
  }
  pd.resp_seen = true;
  const auto* v = std::get_if<double>(&ev.value);
  if (ev.kind != proto::EventKind::response || ev.param != "param_0" ||
      v == nullptr || *v != pd.value) {
    fail(ns, "set_param response does not report the value set");
    return;
  }
  const std::lock_guard<std::mutex> lock(ns.mu);
  if (pd.phase < ns.rtt.size()) {
    ns.rtt[pd.phase].emplace_back(t_recv, t_recv - pd.due);
  }
}

void Generator::run_phase(std::uint8_t phase, double rate, double seconds) {
  // Mix weights over the measured ops; arrivals are Poisson at `rate`.
  const double w[op_count] = {0, 0, 0, 0, p_.real("mix_poll"),
                              p_.real("mix_get"), p_.real("mix_set"),
                              p_.real("mix_post")};
  double total = 0;
  for (const double x : w) total += x;
  std::exponential_distribution<double> gap(rate);
  std::uniform_real_distribution<double> pick(0, total);
  std::vector<std::pair<std::int64_t, std::pair<Op, int>>> plan;
  double t = 0;
  while (true) {
    t += gap(rng_);
    if (t >= seconds) break;
    double x = pick(rng_);
    int op = op_poll;
    while (op < op_count - 1 && x >= w[op]) x -= w[op++];
    const auto& pool = eligible_[static_cast<std::size_t>(op)];
    const int si = pool[std::uniform_int_distribution<std::size_t>(
        0, pool.size() - 1)(rng_)];
    plan.push_back({static_cast<std::int64_t>(t * 1e9),
                    {static_cast<Op>(op), si}});
  }
  Phase ph;
  ph.rate = rate;
  ph.seconds = seconds;
  ph.first_rid = next_rid_;
  ph.late.reserve(plan.size());
  const std::int64_t start = mono_ns() + util::milliseconds(2);
  for (const auto& [off, what] : plan) {
    const std::int64_t due = start + off;
    // Sleep to just before the due time, then spin the last stretch.
    for (std::int64_t now = mono_ns(); now < due; now = mono_ns()) {
      if (due - now > 80 * util::kMicrosecond) {
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(due - now - 60 * util::kMicrosecond));
      }
    }
    ph.late.push_back(mono_ns() - due);
    if (send_op(what.first, what.second, phase, due) == 0) break;
  }
  ph.end_rid = next_rid_;
  phases_.push_back(std::move(ph));
}

// A step passes when every request was answered (no growing backlog), no
// check failed, the op p99 (and, where set, the delivery p99) stayed under
// the workload's limits, and the sender kept its schedule (median lateness
// under its limit).  p99s are medians over slices, so sustained overload
// fails a step and a host stall does not.
bool Generator::judge(Phase& ph, std::uint64_t fails_before) {
  const std::size_t idx = static_cast<std::size_t>(&ph - phases_.data());
  std::vector<std::pair<std::int64_t, std::int64_t>> deliv;
  for (NodeState& ns : ns_) {
    const std::lock_guard<std::mutex> lock(ns.mu);
    deliv.insert(deliv.end(), ns.deliv[idx].begin(), ns.deliv[idx].end());
  }
  const double deliv_limit = p_.real("delivery_p99_limit_ms") * 1e6;
  ph.ok = outstanding(ph.first_rid, ph.end_rid) == 0 &&
          failures() == fails_before &&
          sliced_p99(latencies(ph)) < p_.real("op_p99_limit_ms") * 1e6 &&
          percentile(ph.late, 0.5) < p_.real("gen_late_p50_limit_ms") * 1e6 &&
          (deliv_limit <= 0 ||
           sliced_p99(in_time_order(std::move(deliv))) < deliv_limit);
  return ph.ok;
}

std::vector<std::int64_t> Generator::latencies(const Phase& ph) const {
  std::vector<std::int64_t> lat;
  for (std::uint64_t r = ph.first_rid; r < ph.end_rid; ++r) {
    const Pending& pd = pend(r);
    if (pd.state.load(std::memory_order_acquire) == 3 && pd.ok) {
      lat.push_back(pd.done - pd.due);
    }
  }
  return lat;
}

std::uint64_t Generator::outstanding(std::uint64_t first,
                                     std::uint64_t end) const {
  std::uint64_t n = 0;
  for (std::uint64_t r = first; r < end; ++r) {
    if (pend(r).state.load(std::memory_order_acquire) < 3) ++n;
  }
  return n;
}

void Generator::drain(std::uint64_t first, std::uint64_t end,
                      std::int64_t budget_ns) {
  const std::int64_t deadline = mono_ns() + budget_ns;
  while (mono_ns() < deadline && outstanding(first, end) > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

std::string Generator::echo_rtt() {
  std::vector<std::int64_t> rtt;
  util::Bytes payload(63, 0x5a);
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t t0 = mono_ns();
    if (ctl_call(0, 'E', payload).empty()) break;
    rtt.push_back(mono_ns() - t0);
  }
  return summary_json(summarize(rtt));
}

int Generator::run() {
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  const int n_phases = 1 + 2 * static_cast<int>(p_.list("ladder").size());
  for (NodeState& ns : ns_) {
    ns.deliv.resize(static_cast<std::size_t>(n_phases));
    ns.rtt.resize(static_cast<std::size_t>(n_phases));
  }
  if (!net_.start().ok()) return 1;
  const auto finish = [this](const std::string& error) {
    // Echo while the network runs; read worker-owned state once stopped.
    const std::string echo =
        traced_ && error.empty() ? echo_rtt() : std::string("null");
    net_.stop();
    const std::string out = result_json(error, echo);
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
    return error.empty() ? 0 : 1;
  };

  for (int op = op_poll; op < op_count; ++op) {
    if (p_.real(std::string("mix_") + (op == op_poll  ? "poll"
                                       : op == op_get ? "get"
                                       : op == op_set ? "set"
                                                      : "post")) > 0 &&
        eligible_[static_cast<std::size_t>(op)].empty()) {
      return finish(std::string("no session may issue ") + kOpName[op]);
    }
  }

  // -- set-up: servers ready, every session logged in and selected ----------
  if (!wait_sut_ready()) return finish("SUT processes never became ready");
  if (!probe_apps()) return finish("front server never listed the apps");
  std::vector<int> all, push, lockers;
  std::vector<bool> lock_taken(app_ids_.size(), false);
  for (int i = 0; i < static_cast<int>(sessions_.size()); ++i) {
    const Session& s = sessions_[static_cast<std::size_t>(i)];
    all.push_back(i);
    if (s.push) {
      push.push_back(i);
      ++ns_[s.node].push_enables_left;
    }
    if (s.kind == Kind::steerer && !lock_taken[static_cast<std::size_t>(s.app)]) {
      lock_taken[static_cast<std::size_t>(s.app)] = true;
      lockers.push_back(i);
    }
  }
  // Each (proc, app) push stream at a node carries one copy per session.
  std::map<std::pair<int, std::pair<int, int>>, std::uint32_t> copies;
  for (const int i : push) {
    const Session& s = sessions_[static_cast<std::size_t>(i)];
    ++copies[{s.node, {s.proc, s.app}}];
  }
  for (const auto& [k, n] : copies) ns_[k.first].push[k.second] = PushStream{n};
  std::vector<int> rest(all.begin() + 1, all.end());
  if (!setup_batch(op_login, rest) || !setup_batch(op_select, all) ||
      !setup_batch(op_push, push) || !setup_batch(op_lock, lockers)) {
    return finish("set-up failed");
  }
  setup_done_ns_ = mono_ns();

  // -- measured window at the fixed rate ------------------------------------
  const int procs = static_cast<int>(server_ids_.size());
  for (int i = 0; i < procs; ++i) sut_start_[i] = ctl_call(i, 'A');
  const auto cpu0 = thread_cpu();
  const std::int64_t w0 = mono_ns();
  run_phase(0, p_.real("rate"), p_.real("window_s"));
  drain(phases_[0].first_rid, phases_[0].end_rid, util::seconds(3));
  // Responses and pushes of the last requests are still in flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  for (int i = 0; i < procs; ++i) sut_end_[i] = ctl_call(i, 'Z');
  // Correctness covers set-up and the fixed-rate window; checks failing
  // beyond capacity only fail a ladder step.
  for (NodeState& ns : ns_) {
    const std::lock_guard<std::mutex> lock(ns.mu);
    for (const auto& [k, v] : ns.failures) window_failures_[k] += v;
  }
  judge(phases_[0], 0);
  window_s_ = static_cast<double>(mono_ns() - w0) / 1e9;
  const auto cpu1 = thread_cpu();
  for (const auto& [tid, s1] : cpu1) {
    const auto it = cpu0.find(tid);
    const double d = s1 - (it != cpu0.end() ? it->second : 0.0);
    gen_cpu_s_ += d;
    gen_max_thread_share_ = std::max(gen_max_thread_share_, d / window_s_);
  }
  for (std::uint64_t r = phases_[0].first_rid; r < phases_[0].end_rid; ++r) {
    if (pend(r).state.load() == 3) ++window_completed_;
  }

  // -- rate ladder: a step must fail twice in a row to end the climb -------
  std::uint8_t phase = 1;
  const auto sut_cpu = [this, procs] {
    double cpu = 0;
    for (int i = 0; i < procs; ++i) cpu += json_field(ctl_call(i, 'Q'), "cpu_s");
    return cpu;
  };
  for (const double m : p_.list("ladder")) {
    bool ok = false;
    for (int attempt = 0; attempt < 2 && !ok; ++attempt) {
      const std::uint64_t fails_before = failures();
      const double cpu0 = sut_cpu();
      const std::int64_t t0 = mono_ns();
      run_phase(phase++, m * p_.real("rate"), p_.real("ladder_step_s"));
      drain(phases_.back().first_rid, phases_.back().end_rid,
            util::milliseconds(300));
      Phase& ph = phases_.back();
      ph.sut_busy =
          (sut_cpu() - cpu0) / (static_cast<double>(mono_ns() - t0) / 1e9);
      ok = judge(ph, fails_before);
    }
    if (!ok) break;
  }

  return finish("");
}

std::string Generator::result_json(const std::string& error,
                                   const std::string& echo) {
  JsonObj o;
  o.str("error", error);
  o.num("setup_done_ns", setup_done_ns_);
  // Failures: every validation failure plus requests of the fixed-rate
  // window (and set-up) that never got a reply.
  std::map<std::string, std::uint64_t> fails = window_failures_;
  if (phases_.empty()) {  // set-up never finished: report what failed
    for (const NodeState& ns : ns_) {
      for (const auto& [k, v] : ns.failures) fails[k] += v;
    }
  }
  std::uint64_t attempted = 0;
  const std::uint64_t window_end =
      phases_.empty() ? next_rid_ : phases_[0].end_rid;
  for (std::uint64_t r = 1; r < window_end; ++r) {
    const Pending& pd = pend(r);
    ++attempted;
    if (pd.state.load() != 3) ++fails["timeout"];
    if (pd.op == op_set && pd.state.load() == 3 && pd.ok && !pd.resp_seen) {
      ++fails["set_param response never pushed back"];
    }
  }
  // Federation: remote watchers must see the host watcher's sequence.
  if (server_ids_.size() > 1) {
    for (std::size_t a = 0; a < app_ids_.size(); ++a) {
      std::map<std::uint64_t, std::uint64_t> host, front;
      for (const NodeState& ns : ns_) {
        for (const auto& [key, m] : ns.digests) {
          if (key.second != static_cast<int>(a)) continue;
          (key.first == 0 ? host : front).insert(m.begin(), m.end());
        }
      }
      std::uint64_t compared = 0;
      for (const auto& [seq, d] : front) {
        const auto it = host.find(seq);
        if (it == host.end()) continue;
        ++compared;
        if (it->second != d) ++fails["remote watcher saw a different event"];
      }
      if (compared == 0 && !host.empty()) {
        ++fails["remote and host watchers share no events"];
      }
    }
  }
  std::uint64_t failed = 0;
  JsonObj fj;
  for (const auto& [k, v] : fails) {
    failed += v;
    fj.num(k, v);
  }
  o.num("attempted", attempted).num("failed", failed).raw("fail_reasons",
                                                          fj.done());
  // Phases.
  std::string phs = "[";
  for (std::size_t i = 0; i < phases_.size(); ++i) {
    const Phase& ph = phases_[i];
    const std::vector<std::int64_t> lat = latencies(ph);
    std::vector<std::pair<std::int64_t, std::int64_t>> dl, rt;
    for (const NodeState& ns : ns_) {
      dl.insert(dl.end(), ns.deliv[i].begin(), ns.deliv[i].end());
      rt.insert(rt.end(), ns.rtt[i].begin(), ns.rtt[i].end());
    }
    const std::uint64_t completed =
        ph.end_rid - ph.first_rid - outstanding(ph.first_rid, ph.end_rid);
    if (i > 0) phs += ",";
    phs += JsonObj()
               .num("rate", ph.rate)
               .num("seconds", ph.seconds)
               .num("sut_busy", ph.sut_busy)
               .num("ok", ph.ok ? 1 : 0)
               .num("sent", ph.end_rid - ph.first_rid)
               .num("completed", completed)
               .raw("op", summary_json(summarize(lat)))
               .raw("delivery", summary_json(summarize(in_time_order(std::move(dl)))))
               .raw("steer_rtt", summary_json(summarize(in_time_order(std::move(rt)))))
               .raw("late", summary_json(summarize(ph.late)))
               .done();
  }
  o.raw("phases", phs + "]");
  o.num("window_s", window_s_).num("window_completed", window_completed_);
  o.num("gen_cpu_s", gen_cpu_s_).num("gen_max_thread_share",
                                     gen_max_thread_share_);
  std::uint64_t polls = 0, poll_events = 0, empty = 0, pushes = 0,
                resp_bytes = 0, replies = 0;
  util::LatencyHistogram dec;
  for (const NodeState& ns : ns_) {
    polls += ns.polls;
    poll_events += ns.poll_events;
    empty += ns.empty_polls;
    pushes += ns.pushes;
    resp_bytes += ns.resp_bytes;
    replies += ns.replies + ns.pushes;
    dec.merge(ns.decode_ns);
  }
  o.raw("counters", JsonObj()
                        .num("polls", polls)
                        .num("poll_events", poll_events)
                        .num("empty_polls", empty)
                        .num("pushes", pushes)
                        .num("requests", reqs_)
                        .num("req_bytes", req_bytes_)
                        .num("replies", replies)
                        .num("resp_bytes", resp_bytes)
                        .num("sessions",
                             static_cast<std::uint64_t>(sessions_.size()))
                        .done());
  o.raw("workload", JsonObj()
                        .raw("encode_ns", hist_json(encode_ns_))
                        .raw("decode_ns", hist_json(dec))
                        .done());
  std::string sut = "[";
  for (std::size_t i = 0; i < server_ids_.size(); ++i) {
    if (i > 0) sut += ",";
    sut += JsonObj()
               .raw("start", sut_start_[i].empty() ? "null" : sut_start_[i])
               .raw("end", sut_end_[i].empty() ? "null" : sut_end_[i])
               .done();
  }
  o.raw("sut", sut + "]");
  if (traced_ && error.empty()) {
    o.raw("echo_rtt", echo);
    ReplayInputs in;
    in.requests = captured_requests_;
    for (const NodeState& ns : ns_) {
      in.poll_bodies.insert(in.poll_bodies.end(), ns.poll_bodies.begin(),
                            ns.poll_bodies.end());
      in.tokens.insert(in.tokens.end(), ns.tokens.begin(), ns.tokens.end());
    }
    o.raw("replay", run_replay(in));
    if (p_.has("trace_out") &&
        !spans_.write_chrome(p_.str("trace_out"), static_cast<int>(getpid()),
                             "generator")) {
      o.str("trace_error", "cannot write generator trace");
    }
  }
  return o.done();
}

}  // namespace

int gen_main(const Params& p) {
  // Exit with the launching run.py, even if it is killed outright.
  prctl(PR_SET_PDEATHSIG, SIGTERM);
  Generator g(p);
  return g.run();
}

}  // namespace perfbench
