// Wire protocol of the resident sweep service (tools/sweep_serviced):
// request/response documents plus the byte-stream framing they travel in.
//
// Framing: every message is one frame, "<decimal byte count>\n<payload>",
// over a Unix-domain socket or a stdin/stdout pipe. The length prefix makes
// message boundaries explicit (JSON documents are self-delimiting only to a
// parser, and the reader must know how many bytes to trust *before* parsing
// them); it is deliberately the same shape the shard files use for size
// verification, just streamed.
//
// Documents: canonical JSON wrapped in the shared checksummed envelope
// (src/util/json.h, version key "service_version") — the same end-to-end
// integrity discipline as the shard protocol, so a transport that corrupts
// silently produces a retryable structured error, never a wrong figure. A
// sweep request embeds a complete single-shard document (ShardSpec::ToJson
// bytes, shard_index 0 of 1) as an escaped string: the shard schema already
// carries everything a sweep needs (options, axes, cells as canonical
// scenarios) and reusing its exact bytes means the service's identity
// hashes are computed over the same canonical form the shard fleet proves
// byte-identical. Full schema: src/service/README.md.

#ifndef LONGSTORE_SRC_SERVICE_SERVICE_PROTOCOL_H_
#define LONGSTORE_SRC_SERVICE_SERVICE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace longstore {

// Bumped whenever the service schema changes shape or meaning; a server or
// client speaking a different version rejects the document outright.
inline constexpr int kServiceProtocolVersion = 1;
inline constexpr char kServiceVersionKey[] = "service_version";

struct ServiceRequest {
  enum class Kind {
    kPing,     // liveness probe; answered from the accept loop, no simulation
    kStats,    // cache/uptime counters as a JSON object in `result`
    kSweep,    // execute (or serve from cache) the embedded sweep document
    kMetrics,  // the canonical MetricsSnapshot (obs::Registry::SnapshotJson)
               // in `result`. Added without a protocol version bump: new
               // request kinds are additive — an old server rejects the
               // *request* with a non-retryable error, never misreads it.
  };

  Kind kind = Kind::kPing;
  // kSweep only: a complete single-shard document (ShardSpec::ToJson bytes
  // with shard_index 0, shard_count 1, all cells). Empty otherwise.
  std::string sweep_document;

  std::string ToJson() const;
  // Verifies the envelope (json::IntegrityError on length/checksum
  // mismatch — retryable), then parses strictly; `source` names the
  // transport in errors.
  static ServiceRequest FromJson(std::string_view json,
                                 const std::string& source = "");
};

// The wire name of a request kind ("ping", "stats", "sweep", "metrics"),
// also the <kind> of the service.latency_ns.<kind> histogram. Throws
// std::invalid_argument for a value outside the enum.
const char* ServiceRequestKindName(ServiceRequest::Kind kind);

struct ServiceResponse {
  bool ok = false;
  // kOk responses: where the answer came from — "computed" (cold run),
  // "cache" (exact hit, no simulation), "resumed" (near hit continued from
  // stored accumulator state), "pong", or "stats".
  std::string source;
  uint64_t sweep_id = 0;    // identity of the executed sweep; 0 for ping
  int64_t new_trials = 0;   // trials simulated to answer *this* request
  std::string result_json;  // SweepResult::ToJson bytes ("" for ping; stats
                            // object for kStats)
  // Error responses: whether retrying the identical request can succeed
  // (transport corruption) or not (schema/validation error), and a precise
  // message.
  bool retryable = false;
  std::string message;

  std::string ToJson() const;
  static ServiceResponse FromJson(std::string_view json,
                                  const std::string& source = "");
};

// --- framing ---------------------------------------------------------------

enum class FrameStatus {
  kOk,
  kEof,        // clean end of stream before any byte of a frame
  kMalformed,  // unparseable length, oversized frame, or truncated payload
};

// Frames larger than this are refused outright — a corrupted length prefix
// must not convince the server to allocate gigabytes.
inline constexpr size_t kMaxFrameBytes = size_t{256} << 20;

// The daemon's deadline on each accepted connection: each request frame
// must arrive whole within this many seconds of the daemon starting to read
// it, and each write of a reply may wait this long (SO_SNDTIMEO). The
// daemon serves one connection at a time, so a client that stalls or
// trickles bytes mid-frame would otherwise block every other client. A
// frame or write that overruns drops the connection, as a malformed frame
// does. The value is safe because every real client goes through
// CallService: it serializes the request before connecting, writes the
// whole frame right after connecting, waits in ReadFrame for the one reply
// and then closes. Its bytes are never seconds apart, and it is always
// reading while the daemon writes. The wait for the sweep itself is not
// bounded: the daemon reads nothing while it computes.
inline constexpr int kConnectionDeadlineSeconds = 3;

// Reads one "<len>\n<payload>" frame from `fd` (blocking, EINTR-safe).
// kMalformed fills `error` with the reason; the stream is unrecoverable
// afterwards (the reader cannot resynchronize on a byte stream). With
// `deadline_seconds` > 0 the whole frame must arrive within that many
// seconds of the call: each read first polls `fd` for the time that
// remains, and a frame still incomplete at the end is kMalformed with a
// "read timed out" reason. 0 waits with no bound.
FrameStatus ReadFrame(int fd, std::string* payload, std::string* error,
                      int deadline_seconds = 0);

// Writes one frame; false on any write error (EPIPE included — the caller
// decides whether a vanished peer matters).
bool WriteFrame(int fd, std::string_view payload);

// The client side of one exchange with a resident sweep_serviced: connects
// to the Unix-domain socket at `socket_path`, writes `request` as one frame,
// reads one frame back and parses it (ServiceResponse::FromJson, so a
// corrupted response throws json::IntegrityError). Throws
// std::runtime_error when the socket cannot be reached or the exchange
// fails in transit. A service-side error is a response with ok = false,
// not an exception.
ServiceResponse CallService(const std::string& socket_path,
                            const ServiceRequest& request);

}  // namespace longstore

#endif  // LONGSTORE_SRC_SERVICE_SERVICE_PROTOCOL_H_
