// Per-layer unit costs by replay: the traced run captures a sample of the
// workload's own inputs (request bytes, tokens, poll-reply bodies) and this
// file times the layers' public functions on them, one layer at a time.
// The microcosts on record to reconcile against (bench_m1_codecs, bench_a1):
// HTTP parse ~0.6 us, ORB marshal ~0.37 us, CDR event encode 0.3-1.4 us.
#include <memory>

#include "bench.h"
#include "core/server.h"
#include "http/http_message.h"
#include "net/frame_codec.h"
#include "proto/messages.h"
#include "security/token.h"

namespace perfbench {

namespace {

volatile std::uint64_t g_sink = 0;

/// Mean ns per item of `fn` over `items` items, repeated until at least
/// 20 ms have been timed.
template <typename Fn>
double time_per_item(std::size_t items, Fn fn) {
  if (items == 0) return 0;
  std::size_t done = 0;
  const std::int64_t t0 = mono_ns();
  std::int64_t elapsed = 0;
  do {
    fn();
    done += items;
    elapsed = mono_ns() - t0;
  } while (elapsed < 20 * util::kMillisecond);
  return static_cast<double>(elapsed) / static_cast<double>(done);
}

}  // namespace

std::string run_replay(const ReplayInputs& in) {
  JsonObj o;
  // http: resumable stream framing + one-shot parse of real request bytes.
  std::vector<http::HttpRequest> reqs;
  for (const auto& b : in.requests) {
    auto r = http::parse_request(b);
    if (r.ok()) reqs.push_back(std::move(r.value()));
  }
  o.num("http.parse_ns", time_per_item(in.requests.size(), [&] {
    for (const auto& b : in.requests) {
      http::StreamDecoder dec;
      (void)dec.feed(b);
      if (auto m = dec.next()) {
        auto r = http::parse_request(*m);
        g_sink = g_sink + (r.ok() ? r.value().body.size() : 0);
      }
    }
  }));
  // proto: body decode by servlet path.
  o.num("proto.decode_ns", time_per_item(reqs.size(), [&] {
    for (const auto& r : reqs) {
      try {
        if (r.path == core::kPathPoll) {
          g_sink = g_sink + proto::decode_poll_request(r.body).max_events;
        } else if (r.path == core::kPathCommand) {
          g_sink = g_sink + proto::decode_command_request(r.body).request_id;
        } else if (r.path == core::kPathCollabPost) {
          g_sink = g_sink + proto::decode_collab_post(r.body).text.size();
        }
      } catch (const wire::DecodeError&) {
      }
    }
  }));
  // security: token issue and verify with the server's default secret.
  std::uint64_t verified = 0;
  if (!in.tokens.empty()) {
    const security::TokenAuthority ta(in.tokens[0].issuer,
                                      core::ServerConfig{}.token_secret);
    for (const auto& t : in.tokens) {
      verified += ta.verify(t, t.issued_at + 1).ok() ? 1 : 0;
    }
    o.num("security.verify_ns", time_per_item(in.tokens.size(), [&] {
      for (const auto& t : in.tokens) {
        g_sink = g_sink + (ta.verify(t, t.issued_at + 1).ok() ? 1 : 0);
      }
    }));
    o.num("security.issue_ns", time_per_item(in.tokens.size(), [&] {
      for (const auto& t : in.tokens) {
        g_sink = g_sink + ta.issue(t.user, t.issued_at, 3600).mac;
      }
    }));
  }
  o.num("security.tokens_verified", verified)
      .num("security.tokens_sampled",
           static_cast<std::uint64_t>(in.tokens.size()));
  // proto/wire: poll-reply encode (per event) and standalone CDR event
  // encode, on the events the workload actually received.
  std::vector<std::vector<proto::SharedClientEvent>> batches;
  std::size_t events = 0;
  for (const auto& body : in.poll_bodies) {
    try {
      auto reply = proto::decode_poll_reply(body);
      std::vector<proto::SharedClientEvent> batch;
      for (auto& ev : reply.events) {
        batch.push_back(
            std::make_shared<const proto::ClientEvent>(std::move(ev)));
      }
      events += batch.size();
      batches.push_back(std::move(batch));
    } catch (const wire::DecodeError&) {
    }
  }
  o.num("proto.poll_reply_encode_ns", time_per_item(events, [&] {
    for (const auto& b : batches) {
      g_sink = g_sink + proto::encode_poll_reply_shared(true, "", b, 0).size();
    }
  }));
  o.num("wire.event_encode_ns", time_per_item(events, [&] {
    for (const auto& b : batches) {
      for (const auto& ev : b) {
        wire::Encoder e;
        proto::encode(e, *ev);
        g_sink = g_sink + e.size();
      }
    }
  }));
  o.num("proto.poll_reply_decode_ns", time_per_item(batches.size(), [&] {
    for (const auto& body : in.poll_bodies) {
      try {
        g_sink = g_sink + proto::decode_poll_reply(body).events.size();
      } catch (const wire::DecodeError&) {
      }
    }
  }));
  // net: frame decode of the request bytes as the transport frames them.
  util::Bytes stream;
  for (const auto& b : in.requests) {
    const util::Bytes f =
        net::encode_frame(net::NodeId{1}, net::NodeId{2},
                          static_cast<std::uint32_t>(net::Channel::http), b);
    stream.insert(stream.end(), f.begin(), f.end());
  }
  o.num("net.frame_feed_ns", time_per_item(in.requests.size(), [&] {
    net::FrameDecoder dec;
    std::vector<net::Frame> frames;
    (void)dec.feed(stream.data(), stream.size(), frames);
    g_sink = g_sink + frames.size();
  }));
  o.num("inputs.requests", static_cast<std::uint64_t>(in.requests.size()))
      .num("inputs.poll_batches", static_cast<std::uint64_t>(batches.size()))
      .num("inputs.events", static_cast<std::uint64_t>(events));
  return o.done();
}

}  // namespace perfbench
