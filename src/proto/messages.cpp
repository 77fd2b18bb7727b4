#include "proto/messages.h"

namespace discover::proto {

namespace {

enum class Tag : std::uint8_t {
  app_register = 1,
  app_register_ack = 2,
  app_update = 3,
  app_phase = 4,
  app_deregister = 5,
  app_command = 6,
  app_response = 7,
  app_error = 8,
  system_event = 9,
};

void encode_msg(wire::Encoder& e, const AppRegister& m) {
  e.str(m.app_name);
  e.str(m.description);
  e.u64(m.auth_key);
  encode_param_specs(e, m.params);
  e.sequence(m.acl, [](wire::Encoder& enc, const security::AclEntry& a) {
    encode(enc, a);
  });
  e.i64(m.update_period);
}

AppRegister decode_app_register(wire::Decoder& d) {
  AppRegister m;
  m.app_name = d.str();
  m.description = d.str();
  m.auth_key = d.u64();
  m.params = decode_param_specs(d);
  m.acl = d.sequence<security::AclEntry>(
      [](wire::Decoder& dec) { return decode_acl_entry(dec); });
  m.update_period = d.i64();
  return m;
}

void encode_msg(wire::Encoder& e, const AppRegisterAck& m) {
  e.boolean(m.accepted);
  e.str(m.message);
  encode(e, m.app_id);
}

AppRegisterAck decode_app_register_ack(wire::Decoder& d) {
  AppRegisterAck m;
  m.accepted = d.boolean();
  m.message = d.str();
  m.app_id = decode_app_id(d);
  return m;
}

void encode_msg(wire::Encoder& e, const AppUpdate& m) {
  encode(e, m.app_id);
  e.u64(m.iteration);
  e.f64(m.sim_time);
  e.u8(static_cast<std::uint8_t>(m.phase));
  encode_metrics(e, m.metrics);
}

AppUpdate decode_app_update(wire::Decoder& d) {
  AppUpdate m;
  m.app_id = decode_app_id(d);
  m.iteration = d.u64();
  m.sim_time = d.f64();
  m.phase = static_cast<AppPhase>(d.u8());
  m.metrics = decode_metrics(d);
  return m;
}

void encode_msg(wire::Encoder& e, const AppPhaseNotice& m) {
  encode(e, m.app_id);
  e.u8(static_cast<std::uint8_t>(m.phase));
}

AppPhaseNotice decode_app_phase(wire::Decoder& d) {
  AppPhaseNotice m;
  m.app_id = decode_app_id(d);
  m.phase = static_cast<AppPhase>(d.u8());
  return m;
}

void encode_msg(wire::Encoder& e, const AppDeregister& m) {
  encode(e, m.app_id);
  e.str(m.reason);
}

AppDeregister decode_app_deregister(wire::Decoder& d) {
  AppDeregister m;
  m.app_id = decode_app_id(d);
  m.reason = d.str();
  return m;
}

void encode_msg(wire::Encoder& e, const AppCommand& m) {
  encode(e, m.app_id);
  e.u64(m.request_id);
  e.str(m.user);
  e.u8(static_cast<std::uint8_t>(m.kind));
  e.str(m.param);
  encode(e, m.value);
}

AppCommand decode_app_command(wire::Decoder& d) {
  AppCommand m;
  m.app_id = decode_app_id(d);
  m.request_id = d.u64();
  m.user = d.str();
  m.kind = static_cast<CommandKind>(d.u8());
  m.param = d.str();
  m.value = decode_param_value(d);
  return m;
}

void encode_msg(wire::Encoder& e, const AppResponse& m) {
  encode(e, m.app_id);
  e.u64(m.request_id);
  e.boolean(m.ok);
  e.str(m.message);
  e.str(m.param);
  encode(e, m.value);
  encode_param_specs(e, m.params);
}

AppResponse decode_app_response(wire::Decoder& d) {
  AppResponse m;
  m.app_id = decode_app_id(d);
  m.request_id = d.u64();
  m.ok = d.boolean();
  m.message = d.str();
  m.param = d.str();
  m.value = decode_param_value(d);
  m.params = decode_param_specs(d);
  return m;
}

void encode_msg(wire::Encoder& e, const AppError& m) {
  encode(e, m.app_id);
  e.u64(m.request_id);
  e.str(m.message);
}

AppError decode_app_error(wire::Decoder& d) {
  AppError m;
  m.app_id = decode_app_id(d);
  m.request_id = d.u64();
  m.message = d.str();
  return m;
}

void encode_msg(wire::Encoder& e, const SystemEvent& m) {
  e.u8(static_cast<std::uint8_t>(m.kind));
  e.u32(m.origin_server);
  encode(e, m.app);
  e.str(m.text);
}

SystemEvent decode_system_event(wire::Decoder& d) {
  SystemEvent m;
  m.kind = static_cast<SystemEventKind>(d.u8());
  m.origin_server = d.u32();
  m.app = decode_app_id(d);
  m.text = d.str();
  return m;
}

}  // namespace

util::Bytes encode_framed(const FramedMessage& msg) {
  wire::Encoder e;
  e.reserve(160);  // covers the tag + a typical body without reallocation
  std::visit(
      [&e](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, AppRegister>) {
          e.u8(static_cast<std::uint8_t>(Tag::app_register));
        } else if constexpr (std::is_same_v<T, AppRegisterAck>) {
          e.u8(static_cast<std::uint8_t>(Tag::app_register_ack));
        } else if constexpr (std::is_same_v<T, AppUpdate>) {
          e.u8(static_cast<std::uint8_t>(Tag::app_update));
        } else if constexpr (std::is_same_v<T, AppPhaseNotice>) {
          e.u8(static_cast<std::uint8_t>(Tag::app_phase));
        } else if constexpr (std::is_same_v<T, AppDeregister>) {
          e.u8(static_cast<std::uint8_t>(Tag::app_deregister));
        } else if constexpr (std::is_same_v<T, AppCommand>) {
          e.u8(static_cast<std::uint8_t>(Tag::app_command));
        } else if constexpr (std::is_same_v<T, AppResponse>) {
          e.u8(static_cast<std::uint8_t>(Tag::app_response));
        } else if constexpr (std::is_same_v<T, AppError>) {
          e.u8(static_cast<std::uint8_t>(Tag::app_error));
        } else {
          e.u8(static_cast<std::uint8_t>(Tag::system_event));
        }
        encode_msg(e, m);
      },
      msg);
  return std::move(e).take();
}

util::Result<FramedMessage> decode_framed(const util::Bytes& data) {
  try {
    wire::Decoder d(data);
    const auto tag = static_cast<Tag>(d.u8());
    FramedMessage out;
    switch (tag) {
      case Tag::app_register: out = decode_app_register(d); break;
      case Tag::app_register_ack: out = decode_app_register_ack(d); break;
      case Tag::app_update: out = decode_app_update(d); break;
      case Tag::app_phase: out = decode_app_phase(d); break;
      case Tag::app_deregister: out = decode_app_deregister(d); break;
      case Tag::app_command: out = decode_app_command(d); break;
      case Tag::app_response: out = decode_app_response(d); break;
      case Tag::app_error: out = decode_app_error(d); break;
      case Tag::system_event: out = decode_system_event(d); break;
      default:
        return util::Error{util::Errc::protocol_error, "unknown frame tag"};
    }
    d.finish();
    return out;
  } catch (const wire::DecodeError& err) {
    return util::Error{util::Errc::protocol_error, err.what()};
  }
}

// --- forward_events batches --------------------------------------------------

void encode_event_frames(wire::Encoder& e, const std::vector<EventFrame>& v) {
  e.u32(static_cast<std::uint32_t>(v.size()));
  for (const auto& f : v) {
    e.u8(static_cast<std::uint8_t>(f.kind));
    encode(e, f.app);
    e.u64(f.seq_first);
    e.u64(f.seq_last);
    e.u32(static_cast<std::uint32_t>(f.events.size()));
    for (const auto& ev : f.events) {
      e.align_to(8);
      encode(e, ev);
    }
  }
}

std::vector<EventFrame> decode_event_frames(wire::Decoder& d) {
  const std::uint32_t n_frames = d.u32();
  if (d.remaining() < n_frames) {
    throw wire::DecodeError("truncated frame sequence");
  }
  std::vector<EventFrame> out;
  out.reserve(std::min<std::size_t>(n_frames, wire::kMaxSequencePrereserve));
  for (std::uint32_t i = 0; i < n_frames; ++i) {
    EventFrame f;
    f.kind = static_cast<EventFrameKind>(d.u8());
    f.app = decode_app_id(d);
    f.seq_first = d.u64();
    f.seq_last = d.u64();
    const std::uint32_t n_events = d.u32();
    if (d.remaining() < n_events) {
      throw wire::DecodeError("truncated event sequence");
    }
    f.events.reserve(
        std::min<std::size_t>(n_events, wire::kMaxSequencePrereserve));
    for (std::uint32_t k = 0; k < n_events; ++k) {
      d.align_to(8);
      f.events.push_back(decode_client_event(d));
    }
    out.push_back(std::move(f));
  }
  return out;
}

// --- directory deltas --------------------------------------------------------

void encode(wire::Encoder& e, const DirectoryUpdate& v) {
  e.u64(v.epoch);
  e.u64(v.version);
  e.boolean(v.full);
  e.sequence(v.removed,
             [](wire::Encoder& enc, const AppId& id) { encode(enc, id); });
  e.sequence(v.apps,
             [](wire::Encoder& enc, const AppInfo& a) { encode(enc, a); });
}

DirectoryUpdate decode_directory_update(wire::Decoder& d) {
  DirectoryUpdate v;
  v.epoch = d.u64();
  v.version = d.u64();
  v.full = d.boolean();
  v.removed =
      d.sequence<AppId>([](wire::Decoder& dd) { return decode_app_id(dd); });
  v.apps =
      d.sequence<AppInfo>([](wire::Decoder& dd) { return decode_app_info(dd); });
  return v;
}

// --- HTTP bodies -------------------------------------------------------------

const char* admission_error_name(AdmissionError e) {
  switch (e) {
    case AdmissionError::none: return "none";
    case AdmissionError::server_sessions: return "server_sessions";
    case AdmissionError::app_sessions: return "app_sessions";
  }
  return "?";
}

void encode_events(wire::Encoder& e, const std::vector<ClientEvent>& v) {
  e.sequence(v,
             [](wire::Encoder& enc, const ClientEvent& ev) { encode(enc, ev); });
}

std::vector<ClientEvent> decode_events(wire::Decoder& d) {
  return d.sequence<ClientEvent>(
      [](wire::Decoder& dec) { return decode_client_event(dec); });
}

void encode_param_specs(wire::Encoder& e, const std::vector<ParamSpec>& v) {
  e.sequence(v, [](wire::Encoder& enc, const ParamSpec& p) { encode(enc, p); });
}

std::vector<ParamSpec> decode_param_specs(wire::Decoder& d) {
  return d.sequence<ParamSpec>(
      [](wire::Decoder& dec) { return decode_param_spec(dec); });
}

util::Bytes encode_body(const LoginRequest& m) {
  wire::Encoder e;
  e.str(m.user);
  e.u64(m.password_digest);
  return std::move(e).take();
}

LoginRequest decode_login_request(const util::Bytes& b) {
  wire::Decoder d(b);
  LoginRequest m;
  m.user = d.str();
  m.password_digest = d.u64();
  return m;
}

util::Bytes encode_body(const LoginReply& m) {
  wire::Encoder e;
  e.boolean(m.ok);
  e.str(m.message);
  encode(e, m.token);
  e.sequence(m.applications,
             [](wire::Encoder& enc, const AppInfo& a) { encode(enc, a); });
  e.u8(static_cast<std::uint8_t>(m.admission));
  e.i64(m.retry_after);
  return std::move(e).take();
}

LoginReply decode_login_reply(const util::Bytes& b) {
  wire::Decoder d(b);
  LoginReply m;
  m.ok = d.boolean();
  m.message = d.str();
  m.token = decode_token(d);
  m.applications = d.sequence<AppInfo>(
      [](wire::Decoder& dec) { return decode_app_info(dec); });
  m.admission = static_cast<AdmissionError>(d.u8());
  m.retry_after = d.i64();
  return m;
}

util::Bytes encode_body(const SelectAppRequest& m) {
  wire::Encoder e;
  encode(e, m.token);
  encode(e, m.app_id);
  return std::move(e).take();
}

SelectAppRequest decode_select_app_request(const util::Bytes& b) {
  wire::Decoder d(b);
  SelectAppRequest m;
  m.token = decode_token(d);
  m.app_id = decode_app_id(d);
  return m;
}

util::Bytes encode_body(const SelectAppReply& m) {
  wire::Encoder e;
  e.boolean(m.ok);
  e.str(m.message);
  e.u8(static_cast<std::uint8_t>(m.privilege));
  e.sequence(m.interface_spec,
             [](wire::Encoder& enc, const ParamSpec& p) { encode(enc, p); });
  e.u64(m.history_seq);
  e.u8(static_cast<std::uint8_t>(m.admission));
  e.i64(m.retry_after);
  return std::move(e).take();
}

SelectAppReply decode_select_app_reply(const util::Bytes& b) {
  wire::Decoder d(b);
  SelectAppReply m;
  m.ok = d.boolean();
  m.message = d.str();
  m.privilege = static_cast<security::Privilege>(d.u8());
  m.interface_spec = d.sequence<ParamSpec>(
      [](wire::Decoder& dec) { return decode_param_spec(dec); });
  m.history_seq = d.u64();
  m.admission = static_cast<AdmissionError>(d.u8());
  m.retry_after = d.i64();
  return m;
}

util::Bytes encode_body(const CommandRequest& m) {
  wire::Encoder e;
  encode(e, m.token);
  encode(e, m.app_id);
  e.u64(m.request_id);
  e.u8(static_cast<std::uint8_t>(m.kind));
  e.str(m.param);
  encode(e, m.value);
  return std::move(e).take();
}

CommandRequest decode_command_request(const util::Bytes& b) {
  wire::Decoder d(b);
  CommandRequest m;
  m.token = decode_token(d);
  m.app_id = decode_app_id(d);
  m.request_id = d.u64();
  m.kind = static_cast<CommandKind>(d.u8());
  m.param = d.str();
  m.value = decode_param_value(d);
  return m;
}

util::Bytes encode_body(const CommandAck& m) {
  wire::Encoder e;
  e.boolean(m.accepted);
  e.str(m.message);
  e.u64(m.request_id);
  return std::move(e).take();
}

CommandAck decode_command_ack(const util::Bytes& b) {
  wire::Decoder d(b);
  CommandAck m;
  m.accepted = d.boolean();
  m.message = d.str();
  m.request_id = d.u64();
  return m;
}

util::Bytes encode_body(const PollRequest& m) {
  wire::Encoder e;
  encode(e, m.token);
  encode(e, m.app_id);
  e.u32(m.max_events);
  return std::move(e).take();
}

PollRequest decode_poll_request(const util::Bytes& b) {
  wire::Decoder d(b);
  PollRequest m;
  m.token = decode_token(d);
  m.app_id = decode_app_id(d);
  m.max_events = d.u32();
  return m;
}

namespace {
// Encoder pre-size for a poll-reply: header plus a typical event footprint.
// An estimate, not a bound — the buffer still grows for oversized events.
constexpr std::size_t kPollReplyBaseHint = 48;
constexpr std::size_t kPerEventHint = 128;
}  // namespace

util::Bytes encode_body(const PollReply& m) {
  wire::Encoder e;
  e.reserve(kPollReplyBaseHint + m.message.size() +
            m.events.size() * kPerEventHint);
  e.boolean(m.ok);
  e.str(m.message);
  encode_events(e, m.events);
  e.u32(m.backlog);
  return std::move(e).take();
}

util::Bytes encode_poll_reply_shared(bool ok, const std::string& message,
                                     const std::vector<SharedClientEvent>& events,
                                     std::uint32_t backlog) {
  wire::Encoder e;
  e.reserve(kPollReplyBaseHint + message.size() +
            events.size() * kPerEventHint);
  e.boolean(ok);
  e.str(message);
  e.sequence(events, [](wire::Encoder& enc, const SharedClientEvent& ev) {
    encode(enc, *ev);
  });
  e.u32(backlog);
  return std::move(e).take();
}

PollReply decode_poll_reply(const util::Bytes& b) {
  wire::Decoder d(b);
  PollReply m;
  m.ok = d.boolean();
  m.message = d.str();
  m.events = decode_events(d);
  m.backlog = d.u32();
  return m;
}

util::Bytes encode_body(const CollabPost& m) {
  wire::Encoder e;
  encode(e, m.token);
  encode(e, m.app_id);
  e.u8(static_cast<std::uint8_t>(m.kind));
  e.str(m.text);
  encode(e, m.payload);
  return std::move(e).take();
}

CollabPost decode_collab_post(const util::Bytes& b) {
  wire::Decoder d(b);
  CollabPost m;
  m.token = decode_token(d);
  m.app_id = decode_app_id(d);
  m.kind = static_cast<EventKind>(d.u8());
  m.text = d.str();
  m.payload = decode_param_value(d);
  return m;
}

util::Bytes encode_body(const CollabAck& m) {
  wire::Encoder e;
  e.boolean(m.ok);
  e.str(m.message);
  return std::move(e).take();
}

CollabAck decode_collab_ack(const util::Bytes& b) {
  wire::Decoder d(b);
  CollabAck m;
  m.ok = d.boolean();
  m.message = d.str();
  return m;
}

util::Bytes encode_body(const GroupRequest& m) {
  wire::Encoder e;
  encode(e, m.token);
  encode(e, m.app_id);
  e.u8(static_cast<std::uint8_t>(m.op));
  e.str(m.subgroup);
  return std::move(e).take();
}

GroupRequest decode_group_request(const util::Bytes& b) {
  wire::Decoder d(b);
  GroupRequest m;
  m.token = decode_token(d);
  m.app_id = decode_app_id(d);
  m.op = static_cast<GroupOp>(d.u8());
  m.subgroup = d.str();
  return m;
}

util::Bytes encode_body(const HistoryRequest& m) {
  wire::Encoder e;
  encode(e, m.token);
  encode(e, m.app_id);
  e.u64(m.from_seq);
  e.u32(m.max_events);
  return std::move(e).take();
}

HistoryRequest decode_history_request(const util::Bytes& b) {
  wire::Decoder d(b);
  HistoryRequest m;
  m.token = decode_token(d);
  m.app_id = decode_app_id(d);
  m.from_seq = d.u64();
  m.max_events = d.u32();
  return m;
}

util::Bytes encode_body(const HistoryReply& m) {
  wire::Encoder e;
  e.boolean(m.ok);
  e.str(m.message);
  encode_events(e, m.events);
  return std::move(e).take();
}

HistoryReply decode_history_reply(const util::Bytes& b) {
  wire::Decoder d(b);
  HistoryReply m;
  m.ok = d.boolean();
  m.message = d.str();
  m.events = decode_events(d);
  return m;
}

util::Bytes encode_body(const LogoutRequest& m) {
  wire::Encoder e;
  encode(e, m.token);
  return std::move(e).take();
}

LogoutRequest decode_logout_request(const util::Bytes& b) {
  wire::Decoder d(b);
  LogoutRequest m;
  m.token = decode_token(d);
  return m;
}

}  // namespace discover::proto
