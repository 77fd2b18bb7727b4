// Framed messages on the Main/Command/Response/Control channels, plus the
// HTTP request/response bodies exchanged with portal clients.
//
// Framed messages carry a one-byte type tag followed by a CDR body — the
// C++ analogue of the prototype's serialized Java objects, where receivers
// dispatched on the object's class name via reflection (paper §4.1).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "proto/types.h"
#include "util/result.h"

namespace discover::proto {

// ---------------------------------------------------------------------------
// Application <-> server (Main / Command / Response channels)
// ---------------------------------------------------------------------------

/// MainChannel: first message an application sends after connecting.
/// Carries the pre-assigned identifier used to authenticate the application
/// (paper §4.1) and the user ACL that seeds the server's access control
/// (paper §5.2.2).
struct AppRegister {
  std::string app_name;
  std::string description;
  std::uint64_t auth_key = 0;  // pre-assigned application identifier digest
  std::vector<ParamSpec> params;
  std::vector<security::AclEntry> acl;
  util::Duration update_period = 0;  // advertised update cadence
};

/// MainChannel: server's reply; assigns the globally unique AppId.
struct AppRegisterAck {
  bool accepted = false;
  std::string message;
  AppId app_id;
};

/// MainChannel: periodic application state update.
struct AppUpdate {
  AppId app_id;
  std::uint64_t iteration = 0;
  double sim_time = 0;
  AppPhase phase = AppPhase::computing;
  std::map<std::string, double> metrics;
};

/// MainChannel: phase transition notice; the daemon servlet flushes buffered
/// commands when the phase becomes `interacting`.
struct AppPhaseNotice {
  AppId app_id;
  AppPhase phase = AppPhase::computing;
};

/// MainChannel: graceful disconnect.
struct AppDeregister {
  AppId app_id;
  std::string reason;
};

/// CommandChannel (server -> application): one forwarded client command.
struct AppCommand {
  AppId app_id;
  std::uint64_t request_id = 0;
  std::string user;
  CommandKind kind = CommandKind::query_status;
  std::string param;
  ParamValue value;
};

/// ResponseChannel (application -> server): reply to one AppCommand.
struct AppResponse {
  AppId app_id;
  std::uint64_t request_id = 0;
  bool ok = false;
  std::string message;
  std::string param;
  ParamValue value;
  std::vector<ParamSpec> params;  // for query_status
};

/// ResponseChannel (application -> server): asynchronous failure.
struct AppError {
  AppId app_id;
  std::uint64_t request_id = 0;  // 0 when not tied to a request
  std::string message;
};

// ---------------------------------------------------------------------------
// Server <-> server (Control channel, paper §5.1: "forward error messages
// and system events ... a notification service similar to Salamander's")
// ---------------------------------------------------------------------------

enum class SystemEventKind : std::uint8_t {
  server_up = 0,
  server_down = 1,
  app_registered = 2,
  app_departed = 3,
  error = 4,
};

struct SystemEvent {
  SystemEventKind kind = SystemEventKind::error;
  std::uint32_t origin_server = 0;
  AppId app;  // when app-related
  std::string text;
};

// ---------------------------------------------------------------------------
// Server <-> server batched event propagation (DiscoverCorbaServer
// "forward_events", see DESIGN.md "Peer outbox & directory deltas").  One
// call drains a peer outbox: a sequence of frames, each a run of events for
// one application.
// ---------------------------------------------------------------------------

enum class EventFrameKind : std::uint8_t {
  /// Host -> subscriber push.  Events carry host-assigned seqs and the
  /// frame carries their [seq_first, seq_last] range, so the receiver's
  /// remote_known_seq dedup makes retried or duplicated batches harmless
  /// and whole stale frames can be skipped without touching the events.
  push = 0,
  /// A client collaboration post relayed toward the application's host,
  /// which stamps/archives/redistributes (§5.2.3).  Events carry no seq
  /// yet; seq_first/seq_last are zero.
  collab_relay = 1,
};

struct EventFrame {
  EventFrameKind kind = EventFrameKind::push;
  AppId app;
  std::uint64_t seq_first = 0;
  std::uint64_t seq_last = 0;
  std::vector<ClientEvent> events;
};

/// Struct-based reference encoding.  Each event is placed at an 8-byte
/// boundary, which makes the encoding byte-identical to the outbox fast
/// path that splices pre-encoded standalone events (wire::Encoder::splice);
/// peer_batch_test pins the two together.
void encode_event_frames(wire::Encoder& e, const std::vector<EventFrame>& v);
std::vector<EventFrame> decode_event_frames(wire::Decoder& d);

/// Length-prefixed sequences, as the ORB methods carry events and steering
/// interfaces (decoding bounds the pre-reservation by the bytes present).
void encode_events(wire::Encoder& e, const std::vector<ClientEvent>& v);
std::vector<ClientEvent> decode_events(wire::Decoder& d);
void encode_param_specs(wire::Encoder& e, const std::vector<ParamSpec>& v);
std::vector<ParamSpec> decode_param_specs(wire::Decoder& d);

// ---------------------------------------------------------------------------
// Server <-> server versioned directory (DiscoverCorbaServer
// "list_apps_since").  The host bumps `version` on every local membership
// or phase change and keeps a bounded change log; a caller presenting its
// cached (epoch, version) gets the delta, or a full snapshot when it is on
// another epoch or behind the log tail.
// ---------------------------------------------------------------------------

struct DirectoryUpdate {
  std::uint64_t epoch = 0;
  std::uint64_t version = 0;
  bool full = false;
  std::vector<AppId> removed;  // delta only; empty in a full snapshot
  std::vector<AppInfo> apps;   // delta: upserts; full: the whole directory
};

void encode(wire::Encoder& e, const DirectoryUpdate& v);
DirectoryUpdate decode_directory_update(wire::Decoder& d);

// ---------------------------------------------------------------------------
// Framed envelope
// ---------------------------------------------------------------------------

using FramedMessage =
    std::variant<AppRegister, AppRegisterAck, AppUpdate, AppPhaseNotice,
                 AppDeregister, AppCommand, AppResponse, AppError,
                 SystemEvent>;

util::Bytes encode_framed(const FramedMessage& msg);
util::Result<FramedMessage> decode_framed(const util::Bytes& data);

// ---------------------------------------------------------------------------
// Client <-> server HTTP bodies.  The servlet path selects the type, so the
// bodies are untagged CDR.  Paths live in core/portal_paths.h.
// ---------------------------------------------------------------------------

/// Typed admission-control rejection cause.  `none` means the request was
/// not refused by admission control (it may still have failed for other
/// reasons, e.g. bad credentials).
enum class AdmissionError : std::uint8_t {
  none = 0,
  server_sessions = 1,  // server-wide session cap reached
  app_sessions = 2,     // per-application subscriber cap reached
};
const char* admission_error_name(AdmissionError e);

/// POST /discover/master/login
struct LoginRequest {
  std::string user;
  std::uint64_t password_digest = 0;
};
struct LoginReply {
  bool ok = false;
  std::string message;
  security::SessionToken token;
  std::vector<AppInfo> applications;  // across the whole server network
  // Admission control (flash-crowd backpressure): when the server-wide
  // session cap rejects the login, `admission` names the cause and
  // `retry_after` suggests how long the client should back off.
  AdmissionError admission = AdmissionError::none;
  util::Duration retry_after = 0;
};

/// POST /discover/master/select — level-2 authentication for one app.
struct SelectAppRequest {
  security::SessionToken token;
  AppId app_id;
};
struct SelectAppReply {
  bool ok = false;
  std::string message;
  security::Privilege privilege = security::Privilege::none;
  std::vector<ParamSpec> interface_spec;  // customized steering interface
  std::uint64_t history_seq = 0;          // latest event seq, for catch-up
  // Admission control: per-app subscriber cap, same contract as LoginReply.
  AdmissionError admission = AdmissionError::none;
  util::Duration retry_after = 0;
};

/// POST /discover/command
struct CommandRequest {
  security::SessionToken token;
  AppId app_id;
  std::uint64_t request_id = 0;
  CommandKind kind = CommandKind::query_status;
  std::string param;
  ParamValue value;
};
struct CommandAck {
  bool accepted = false;
  std::string message;
  std::uint64_t request_id = 0;
};

/// GET /discover/collab/poll — the poll-and-pull fetch (paper §6.2).
struct PollRequest {
  security::SessionToken token;
  AppId app_id;
  std::uint32_t max_events = 64;
};
struct PollReply {
  bool ok = false;
  std::string message;
  std::vector<ClientEvent> events;
  std::uint32_t backlog = 0;  // events still queued server-side
};

/// A refcounted, immutable ClientEvent.  The server's fan-out fast path
/// allocates each event once and shares the instance across every
/// subscriber FIFO it lands in; encode_poll_reply_shared serializes a batch
/// of them into the exact wire format of encode_body(PollReply).
using SharedClientEvent = std::shared_ptr<const ClientEvent>;

/// Wire-identical to encode_body(PollReply) but reads the events through
/// shared pointers, so poll replies are assembled without copying events out
/// of the per-subscriber FIFOs.
util::Bytes encode_poll_reply_shared(bool ok, const std::string& message,
                                     const std::vector<SharedClientEvent>& events,
                                     std::uint32_t backlog);

/// POST /discover/collab/chat and /whiteboard
struct CollabPost {
  security::SessionToken token;
  AppId app_id;
  EventKind kind = EventKind::chat;  // chat or whiteboard
  std::string text;
  ParamValue payload;
};
struct CollabAck {
  bool ok = false;
  std::string message;
};

/// POST /discover/collab/group — join/leave sub-group, toggle collaboration
/// mode (paper §4.1: clients can form sub-groups or disable broadcast).
enum class GroupOp : std::uint8_t {
  join_subgroup = 0,
  leave_subgroup = 1,
  enable_collab = 2,
  disable_collab = 3,
  /// Extension beyond the paper (motivated by its §6.2 discussion): the
  /// server pushes events to this client immediately instead of queueing
  /// them for poll-and-pull.  Used by the poll-vs-push ablation (bench A2).
  enable_push = 4,
  disable_push = 5,
};
struct GroupRequest {
  security::SessionToken token;
  AppId app_id;
  GroupOp op = GroupOp::join_subgroup;
  std::string subgroup;
};

/// GET /discover/archive — replay for latecomers (paper §5.2.5).
struct HistoryRequest {
  security::SessionToken token;
  AppId app_id;
  std::uint64_t from_seq = 0;
  std::uint32_t max_events = 256;
};
struct HistoryReply {
  bool ok = false;
  std::string message;
  std::vector<ClientEvent> events;
};

/// POST /discover/master/logout
struct LogoutRequest {
  security::SessionToken token;
};

// Encoders/decoders for each HTTP body.  Decoders throw wire::DecodeError.
util::Bytes encode_body(const LoginRequest&);
util::Bytes encode_body(const LoginReply&);
util::Bytes encode_body(const SelectAppRequest&);
util::Bytes encode_body(const SelectAppReply&);
util::Bytes encode_body(const CommandRequest&);
util::Bytes encode_body(const CommandAck&);
util::Bytes encode_body(const PollRequest&);
util::Bytes encode_body(const PollReply&);
util::Bytes encode_body(const CollabPost&);
util::Bytes encode_body(const CollabAck&);
util::Bytes encode_body(const GroupRequest&);
util::Bytes encode_body(const HistoryRequest&);
util::Bytes encode_body(const HistoryReply&);
util::Bytes encode_body(const LogoutRequest&);

LoginRequest decode_login_request(const util::Bytes&);
LoginReply decode_login_reply(const util::Bytes&);
SelectAppRequest decode_select_app_request(const util::Bytes&);
SelectAppReply decode_select_app_reply(const util::Bytes&);
CommandRequest decode_command_request(const util::Bytes&);
CommandAck decode_command_ack(const util::Bytes&);
PollRequest decode_poll_request(const util::Bytes&);
PollReply decode_poll_reply(const util::Bytes&);
CollabPost decode_collab_post(const util::Bytes&);
CollabAck decode_collab_ack(const util::Bytes&);
GroupRequest decode_group_request(const util::Bytes&);
HistoryRequest decode_history_request(const util::Bytes&);
HistoryReply decode_history_reply(const util::Bytes&);
LogoutRequest decode_logout_request(const util::Bytes&);

}  // namespace discover::proto
