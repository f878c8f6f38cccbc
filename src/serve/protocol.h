// Wire protocol for the embedded serving layer: typed requests/replies,
// the JSON body codec, and minimal HTTP/1.1 framing.
//
// The protocol is deliberately small — four operations, one JSON object
// per request, one per reply — because the server's contract is the
// library's contract: a served `score` or `next_logits` reply carries the
// exact bits the direct TrafficLM call returns. Rejections are *typed*
// (queue full, session busy, sessions full, shutting down) so clients and
// load generators can distinguish backpressure from failure.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/traffic_lm.h"  // core::SampleOptions

namespace netfm::serve {

/// Operations the scheduler understands.
enum class Op : std::uint8_t {
  kScore,       // mean next-token NLL of a token sequence (TrafficLM::score)
  kNextLogits,  // next-token logits after an id prefix (TrafficLM::next_logits)
  kGenerate,    // sample a synthetic sequence (TrafficLM::sample, seeded)
  kEmbed,       // pooled flow embedding (NetFM::embed)
};

/// Why an admission was shed. Every reject reply names one of these.
enum class RejectReason : std::uint8_t {
  kQueueFull,         // bounded admission queue at capacity
  kSessionBusy,       // per-session pending cap reached
  kSessionsFull,      // decoder pool exhausted and nothing evictable
  kShuttingDown,      // scheduler is stopping/draining
  kDeadlineExceeded,  // request expired before the model ran it
  kOverloaded,        // degradation ladder is shedding this op class
  kContextFull,       // session at max context, or KV block pool exhausted
};

/// Every RejectReason value, for exhaustive client-side decoding.
inline constexpr RejectReason kAllRejectReasons[] = {
    RejectReason::kQueueFull,    RejectReason::kSessionBusy,
    RejectReason::kSessionsFull, RejectReason::kShuttingDown,
    RejectReason::kDeadlineExceeded, RejectReason::kOverloaded,
    RejectReason::kContextFull,
};

std::string_view op_name(Op op) noexcept;
std::string_view reject_reason_name(RejectReason reason) noexcept;

/// One client request. `session` keys the per-session decoder pool (and its
/// paged KV cache) for the decoder-backed ops (score/generate);
/// next_logits/embed are stateless.
struct Request {
  Op op = Op::kScore;
  std::uint64_t session = 0;
  std::vector<std::string> tokens;    // kScore / kEmbed
  std::vector<int> ids;               // kNextLogits
  std::size_t max_seq_len = 48;       // kEmbed pooling window
  core::SampleOptions sampling;       // kGenerate
  std::uint64_t seed = 0;             // kGenerate draw seed
  /// Client budget in milliseconds from admission; 0 = use the scheduler's
  /// default (SchedulerOptions::default_deadline_ms). Set from the JSON
  /// body ("deadline_ms") or the X-Netfm-Deadline-Ms request header (the
  /// header wins). Expired requests shed with kDeadlineExceeded instead of
  /// burning a batch slot.
  std::uint64_t deadline_ms = 0;
};

struct Reply {
  enum class Status : std::uint8_t { kOk, kRejected, kError };
  Status status = Status::kOk;
  RejectReason reject = RejectReason::kQueueFull;  // valid when kRejected
  std::string error;                               // valid when kError
  double score = 0.0;                 // kScore
  std::vector<float> logits;          // kNextLogits
  std::vector<float> embedding;       // kEmbed
  std::vector<std::string> tokens;    // kGenerate
  /// Backoff hint on rejects: estimated milliseconds until the scheduler
  /// has capacity again, derived from current queue depth and the recent
  /// tick duration. 0 = no hint (e.g. shutting down — don't retry here).
  std::uint64_t retry_after_ms = 0;

  static Reply rejected(RejectReason reason,
                        std::uint64_t retry_after_ms = 0) {
    Reply r;
    r.status = Status::kRejected;
    r.reject = reason;
    r.retry_after_ms = retry_after_ms;
    return r;
  }
  static Reply errored(std::string message) {
    Reply r;
    r.status = Status::kError;
    r.error = std::move(message);
    return r;
  }
};

/// Parses the JSON body of a `POST /v1/<op>` request. Returns nullopt and
/// fills `error` on malformed input (unknown op, missing/ill-typed fields).
std::optional<Request> parse_request(std::string_view target,
                                     std::string_view body,
                                     std::string* error);

/// Serializes a request to the JSON body its op expects (client side; the
/// load bench and tests round-trip through this).
std::string request_to_json(const Request& request);

/// Serializes a reply. Ok replies carry the op's payload; rejected replies
/// carry {"ok": false, "reject": "<reason>"}; errors {"ok": false,
/// "error": "..."}. Floats print with enough digits to round-trip bitwise
/// through common/json's double parser.
std::string reply_to_json(const Reply& reply, Op op);

/// Parses a reply back (client side of the bitwise-identity checks).
std::optional<Reply> parse_reply(std::string_view body, Op op);

// ---------------------------------------------------------------------------
// HTTP/1.1 framing, kept pure (bytes in, struct out) so it unit-tests
// without sockets and fuzzes without a server. The server reads the head
// (through "\r\n\r\n"), calls parse_http_head, then reads content_length
// more bytes of body.

/// Bounds enforced by parse_http_head itself (mirroring the hardened
/// src/net decoders): a head over kMaxHttpHeadBytes or with more than
/// kMaxHttpHeaders header lines is rejected as malformed, so no caller can
/// be driven into unbounded header accumulation.
inline constexpr std::size_t kMaxHttpHeaders = 64;
inline constexpr std::size_t kMaxHttpHeadBytes = 16 * 1024;

struct HttpRequest {
  std::string method;          // "POST"
  std::string target;          // "/v1/score"
  std::size_t content_length = 0;
  bool keep_alive = true;      // HTTP/1.1 default; "Connection: close" clears
  std::uint64_t deadline_ms = 0;  // X-Netfm-Deadline-Ms header; 0 = unset
};

/// Parses a request head (start line + headers, excluding the terminating
/// blank line). Returns nullopt on malformed input, too many headers, or
/// an oversized head.
std::optional<HttpRequest> parse_http_head(std::string_view head);

/// Serializes a response with Content-Length framing.
std::string http_response(int status, std::string_view body,
                          bool keep_alive);

}  // namespace netfm::serve
