#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <sstream>
#include <thread>

#include "bench.h"
#include "orb/orb.h"

namespace perfbench {

Params Params::parse(int argc, char** argv, int first) {
  Params p;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (eq == std::string::npos) {
      p.kv_.insert_or_assign(arg, std::string(1, '1'));
    } else {
      p.kv_[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
  }
  return p;
}

std::string Params::str(const std::string& k, const std::string& def) const {
  const auto it = kv_.find(k);
  return it != kv_.end() ? it->second : def;
}

std::int64_t Params::num(const std::string& k, std::int64_t def) const {
  const auto it = kv_.find(k);
  return it != kv_.end() ? std::strtoll(it->second.c_str(), nullptr, 10)
                         : def;
}

double Params::real(const std::string& k, double def) const {
  const auto it = kv_.find(k);
  return it != kv_.end() ? std::strtod(it->second.c_str(), nullptr) : def;
}

std::vector<double> Params::list(const std::string& k) const {
  std::vector<double> out;
  std::stringstream ss(str(k));
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(std::strtod(item.c_str(), nullptr));
  }
  return out;
}

// --- JSON -------------------------------------------------------------------

namespace {
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}
}  // namespace

void JsonObj::key(const std::string& k) {
  if (body_.size() > 1) body_ += ',';
  body_ += '"' + json_escape(k) + "\":";
}

JsonObj& JsonObj::num(const std::string& k, double v) {
  key(k);
  if (!std::isfinite(v)) {
    body_ += "null";
  } else {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    body_ += buf;
  }
  return *this;
}

JsonObj& JsonObj::num(const std::string& k, std::int64_t v) {
  key(k);
  body_ += std::to_string(v);
  return *this;
}

JsonObj& JsonObj::num(const std::string& k, std::uint64_t v) {
  key(k);
  body_ += std::to_string(v);
  return *this;
}

JsonObj& JsonObj::str(const std::string& k, const std::string& v) {
  key(k);
  body_ += '"' + json_escape(v) + '"';
  return *this;
}

JsonObj& JsonObj::raw(const std::string& k, const std::string& json) {
  key(k);
  body_ += json;
  return *this;
}

std::string hist_json(const util::LatencyHistogram& h) {
  return JsonObj()
      .num("count", h.count())
      .num("mean", h.mean_ns())
      .num("p50", static_cast<std::int64_t>(h.percentile(0.5)))
      .num("p99", static_cast<std::int64_t>(h.percentile(0.99)))
      .done();
}

double percentile(std::vector<std::int64_t> v, double q) {
  if (v.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const std::size_t idx = rank == 0 ? 0 : std::min(rank - 1, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return static_cast<double>(v[idx]);
}

// --- topology ---------------------------------------------------------------

std::vector<NodeSpec> topology(const Params& p) {
  const int procs = static_cast<int>(p.num("procs", 1));
  const int apps = static_cast<int>(p.num("apps", 1));
  std::vector<NodeSpec> out;
  for (int proc = 0; proc < procs; ++proc) {
    const std::string sfx = std::to_string(proc);
    if (procs > 1 && proc == 0) out.push_back({"registry", Role::registry, 0});
    out.push_back({"server" + sfx, Role::server, proc});
    out.push_back({"ctl" + sfx, Role::ctl, proc});
    if (proc == 0) {
      for (int a = 0; a < apps; ++a) {
        out.push_back({"app" + std::to_string(a), Role::app, proc});
      }
    } else {
      out.push_back({"anchor" + sfx, Role::anchor, proc});
    }
  }
  out.push_back({"gen0", Role::gen, -1});
  out.push_back({"gen1", Role::gen, -1});
  return out;
}

// --- spans and layer statistics --------------------------------------------

namespace {
std::uint32_t this_tid() {
  return static_cast<std::uint32_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0xffffff);
}
}  // namespace

void SpanLog::add(const char* name, std::int64_t start, std::int64_t dur,
                  std::uint64_t rid) {
  const std::uint32_t tid = this_tid();
  const std::lock_guard<std::mutex> lock(mu_);
  const bool sampled = rid != 0 ? rid % kSpanSampleEvery == 0
                                : untagged_++ % kSpanSampleEvery == 0;
  if (sampled && spans_.size() < cap_) {
    spans_.push_back(Span{name, start, dur, rid, tid});
  }
}

bool SpanLog::write_chrome(const std::string& path, int pid,
                           const std::string& process_name) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(f,
               "{\"traceEvents\":[{\"name\":\"process_name\",\"ph\":\"M\","
               "\"pid\":%d,\"tid\":0,\"args\":{\"name\":\"%s\"}}",
               pid, json_escape(process_name).c_str());
  for (const Span& s : spans_) {
    std::fprintf(f,
                 ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"rid\":%llu}}",
                 s.name, pid, s.tid, static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.dur_ns) / 1e3,
                 static_cast<unsigned long long>(s.rid));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

void LayerStats::record(const std::string& name, std::int64_t ns) {
  const std::lock_guard<std::mutex> lock(mu_);
  hist_[name].record(ns);
}

void LayerStats::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  hist_.clear();
}

std::string LayerStats::json() const {
  const std::lock_guard<std::mutex> lock(mu_);
  JsonObj o;
  for (const auto& [name, h] : hist_) o.raw(name, hist_json(h));
  return o.done();
}

std::uint64_t request_id_of(const util::Bytes& m) {
  static constexpr char kHeader[] = "X-Request-Id: ";
  constexpr std::size_t kLen = sizeof(kHeader) - 1;
  const auto* data = reinterpret_cast<const char*>(m.data());
  const void* hit = memmem(data, m.size(), kHeader, kLen);
  if (hit == nullptr) return 0;
  std::size_t at = static_cast<std::size_t>(static_cast<const char*>(hit) -
                                            data) + kLen;
  std::uint64_t v = 0;
  while (at < m.size() && data[at] >= '0' && data[at] <= '9') {
    v = v * 10 + static_cast<std::uint64_t>(data[at++] - '0');
  }
  return v;
}

namespace {
// The innermost handler span running on this thread; net.send spans issued
// from inside it are its children.
struct HandlerFrame {
  std::int64_t child_ns = 0;
  std::uint64_t rid = 0;
};
thread_local HandlerFrame* tls_frame = nullptr;

const char* handle_span_name(net::Channel c) {
  switch (c) {
    case net::Channel::main_channel: return "core.handle.main_channel";
    case net::Channel::command: return "app.handle.command";
    case net::Channel::response: return "core.handle.response";
    case net::Channel::control: return "core.handle.control";
    case net::Channel::http: return "core.handle.http";
    case net::Channel::giop: return "core.handle.giop";
  }
  return "handle";
}
}  // namespace

class TracingNetwork::Wrapper final : public net::MessageHandler {
 public:
  Wrapper(TracingNetwork& owner, net::MessageHandler* inner, std::string role)
      : owner_(owner), inner_(inner), role_(std::move(role)) {}

  void on_message(const net::Message& msg) override {
    const std::int64_t t0 = mono_ns();
    const std::int64_t wait = owner_.inner_.now() - msg.sent_at;
    HandlerFrame frame;
    if (msg.channel == net::Channel::http) {
      frame.rid = request_id_of(msg.payload);
    }
    HandlerFrame* const prev = tls_frame;
    tls_frame = &frame;
    inner_->on_message(msg);
    tls_frame = prev;
    const std::int64_t span = mono_ns() - t0;
    const std::string ch = net::channel_name(msg.channel);
    LayerStats& st = owner_.stats_;
    st.record(role_ + ".queue_wait_ns", wait);
    st.record(role_ + ".handle_ns." + ch, span);
    st.record(role_ + ".self_ns." + ch, span - frame.child_ns);
    owner_.log_.add("net.queue_wait", t0 - wait, wait, frame.rid);
    owner_.log_.add(handle_span_name(msg.channel), t0, span, frame.rid);
    if (msg.channel == net::Channel::giop) {
      // Replay of the GIOP header peek on the real peer frame, outside the
      // handler span it would otherwise inflate.
      constexpr int kReps = 16;
      const std::int64_t p0 = mono_ns();
      for (int i = 0; i < kReps; ++i) {
        if (!orb::peek_giop_header(msg.payload.bytes()).valid) break;
      }
      st.record("orb.peek_giop_ns", (mono_ns() - p0) / kReps);
    }
  }

 private:
  TracingNetwork& owner_;
  net::MessageHandler* inner_;
  std::string role_;
};

TracingNetwork::TracingNetwork(net::Network& inner, SpanLog& log,
                               LayerStats& stats)
    : inner_(inner), log_(log), stats_(stats) {}
TracingNetwork::~TracingNetwork() = default;

net::NodeId TracingNetwork::add_traced(std::string name,
                                       net::MessageHandler* handler,
                                       net::DomainId domain,
                                       const std::string& role) {
  wrappers_.push_back(std::make_unique<Wrapper>(*this, handler, role));
  return inner_.add_node(std::move(name), wrappers_.back().get(), domain);
}

void TracingNetwork::send(net::NodeId from, net::NodeId to,
                          net::Channel channel, net::Payload payload) {
  const std::int64_t t0 = mono_ns();
  inner_.send(from, to, channel, std::move(payload));
  const std::int64_t d = mono_ns() - t0;
  std::uint64_t rid = 0;
  if (tls_frame != nullptr) {
    tls_frame->child_ns += d;
    rid = tls_frame->rid;
  }
  stats_.record("net.send_ns", d);
  log_.add("net.send", t0, d, rid);
}

// --- validators ---------------------------------------------------------------

const char* PollStream::accept(const proto::ClientEvent& ev) {
  if (ev.kind == proto::EventKind::resync) {
    const auto* shed = std::get_if<std::int64_t>(&ev.value);
    if (shed == nullptr || *shed <= 0) return "malformed resync marker";
    skip_ += static_cast<std::uint64_t>(*shed);
    return nullptr;
  }
  if (next_ == 0) {
    next_ = ev.seq + 1;
    skip_ = 0;
    return nullptr;
  }
  const std::uint64_t want = next_ + skip_;
  if (ev.seq == want) {
    next_ = want + 1;
    skip_ = 0;
    return nullptr;
  }
  if (ev.seq + 1 == next_) return "duplicate event";
  if (ev.seq < next_) return "reordered event";
  return "gap in event seqs";
}

const char* PushStream::accept(std::uint64_t seq) {
  if (cur_ == 0) {
    cur_ = seq;
    count_ = 1;
    return nullptr;
  }
  if (seq == cur_) {
    return ++count_ > copies_ ? "duplicate push delivery" : nullptr;
  }
  if (seq == cur_ + 1) {
    if (count_ != copies_) return "push delivery missing for a session";
    cur_ = seq;
    count_ = 1;
    return nullptr;
  }
  return seq < cur_ ? "reordered push delivery" : "gap in pushed seqs";
}

std::uint64_t event_digest(const proto::ClientEvent& ev) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](const std::string& s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    }
    h ^= 0xff;
    h *= 1099511628211ULL;
  };
  mix(std::to_string(static_cast<int>(ev.kind)));
  mix(std::to_string(ev.seq));
  mix(ev.user);
  mix(ev.text);
  mix(ev.param);
  mix(proto::param_value_to_string(ev.value));
  mix(std::to_string(ev.request_id));
  mix(std::to_string(ev.iteration));
  return h;
}

}  // namespace perfbench
