#include "src/service/service_protocol.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <utility>

#include "src/util/json.h"

namespace longstore {
namespace {

constexpr char kRequestContext[] = "ServiceRequest::FromJson";
constexpr char kResponseContext[] = "ServiceResponse::FromJson";

constexpr std::pair<ServiceRequest::Kind, const char*> kKindNames[] = {
    {ServiceRequest::Kind::kPing, "ping"},
    {ServiceRequest::Kind::kStats, "stats"},
    {ServiceRequest::Kind::kSweep, "sweep"},
    {ServiceRequest::Kind::kMetrics, "metrics"},
};

ServiceRequest::Kind ParseKind(const std::string& name,
                               const std::string& context) {
  for (const auto& [kind, entry] : kKindNames) {
    if (name == entry) {
      return kind;
    }
  }
  json::Fail(context, "unknown request kind '" + name + "'");
}

// Opens the envelope and checks the protocol version; both request and
// response documents share this prologue.
json::ChecksummedDocument OpenServiceDocument(std::string_view text,
                                              const std::string& context,
                                              const std::string& source) {
  const json::ChecksummedDocument doc =
      json::OpenChecksummedDocument(text, kServiceVersionKey, context, source);
  if (doc.version != kServiceProtocolVersion) {
    json::Fail(context, "protocol version " + std::to_string(doc.version) +
                            " is not the supported version " +
                            std::to_string(kServiceProtocolVersion));
  }
  return doc;
}

}  // namespace

const char* ServiceRequestKindName(ServiceRequest::Kind kind) {
  for (const auto& [entry, name] : kKindNames) {
    if (entry == kind) {
      return name;
    }
  }
  throw std::invalid_argument("ServiceRequest: unknown kind");
}

std::string ServiceRequest::ToJson() const {
  std::string body = "{\"request\":\"";
  body += ServiceRequestKindName(kind);
  body += "\",\"sweep_document\":";
  json::AppendEscaped(body, sweep_document);
  body += '}';
  return json::WrapChecksummedBody(kServiceVersionKey, kServiceProtocolVersion,
                                   body);
}

ServiceRequest ServiceRequest::FromJson(std::string_view text,
                                        const std::string& source) {
  const json::ChecksummedDocument doc =
      OpenServiceDocument(text, kRequestContext, source);
  const json::Value root = json::Parse(doc.body, kRequestContext);
  json::ObjectReader reader(root, "request", kRequestContext);
  ServiceRequest request;
  request.kind = ParseKind(reader.GetString("request"), kRequestContext);
  request.sweep_document = reader.GetString("sweep_document");
  reader.Finish();
  if (request.kind == Kind::kSweep && request.sweep_document.empty()) {
    json::Fail(kRequestContext, "sweep request carries no sweep_document");
  }
  return request;
}

std::string ServiceResponse::ToJson() const {
  std::string body = "{\"status\":\"";
  body += ok ? "ok" : "error";
  body += "\",\"source\":";
  json::AppendEscaped(body, source);
  body += ",\"sweep_id\":";
  json::AppendUint64Hex(body, sweep_id);
  body += ",\"new_trials\":";
  json::AppendInt64(body, new_trials);
  body += ",\"result\":";
  json::AppendEscaped(body, result_json);
  body += ",\"retryable\":";
  body += retryable ? "true" : "false";
  body += ",\"message\":";
  json::AppendEscaped(body, message);
  body += '}';
  return json::WrapChecksummedBody(kServiceVersionKey, kServiceProtocolVersion,
                                   body);
}

ServiceResponse ServiceResponse::FromJson(std::string_view text,
                                          const std::string& source) {
  const json::ChecksummedDocument doc =
      OpenServiceDocument(text, kResponseContext, source);
  const json::Value root = json::Parse(doc.body, kResponseContext);
  json::ObjectReader reader(root, "response", kResponseContext);
  ServiceResponse response;
  const std::string status = reader.GetString("status");
  if (status != "ok" && status != "error") {
    json::Fail(kResponseContext, "unknown status '" + status + "'");
  }
  response.ok = status == "ok";
  response.source = reader.GetString("source");
  response.sweep_id = reader.GetUint64Hex("sweep_id");
  response.new_trials = reader.GetInt64("new_trials");
  response.result_json = reader.GetString("result");
  response.retryable = reader.GetBool("retryable");
  response.message = reader.GetString("message");
  reader.Finish();
  return response;
}

// --- framing ---------------------------------------------------------------

namespace {

using Clock = std::chrono::steady_clock;

// ::read, retried on EINTR. With an end time it first polls `fd` for the
// time that remains, and fails with ETIMEDOUT once none remains.
ssize_t ReadBefore(int fd, char* buffer, size_t size,
                   const std::optional<Clock::time_point>& end) {
  while (true) {
    if (end) {
      const auto left =
          std::chrono::ceil<std::chrono::milliseconds>(*end - Clock::now());
      pollfd entry = {fd, POLLIN, 0};
      const int ready =
          left.count() > 0 ? ::poll(&entry, 1, static_cast<int>(left.count())) : 0;
      if (ready == 0) {
        errno = ETIMEDOUT;
        return -1;
      }
      if (ready < 0 && errno == EINTR) {
        continue;
      }
    }
    const ssize_t n = ::read(fd, buffer, size);
    if (n >= 0 || errno != EINTR) {
      return n;
    }
  }
}

// What a failed read did, for the frame error.
const char* ReadFailure() {
  return errno == ETIMEDOUT ? "read timed out" : "read failed";
}

}  // namespace

FrameStatus ReadFrame(int fd, std::string* payload, std::string* error,
                      int deadline_seconds) {
  std::optional<Clock::time_point> end;
  if (deadline_seconds > 0) {
    end = Clock::now() + std::chrono::seconds(deadline_seconds);
  }
  // Length prefix: decimal digits then '\n'. 20 digits bound any uint64, so
  // anything longer is garbage, not a long frame.
  size_t length = 0;
  int digits = 0;
  while (true) {
    char c = 0;
    const ssize_t got = ReadBefore(fd, &c, 1, end);
    if (got < 0) {
      *error = std::string(ReadFailure()) + " while reading frame length";
      return FrameStatus::kMalformed;
    }
    if (got == 0) {
      if (digits == 0) {
        return FrameStatus::kEof;
      }
      *error = "stream ended inside a frame length prefix";
      return FrameStatus::kMalformed;
    }
    if (c == '\n') {
      if (digits == 0) {
        *error = "empty frame length prefix";
        return FrameStatus::kMalformed;
      }
      break;
    }
    if (c < '0' || c > '9' || digits >= 20) {
      *error = "malformed frame length prefix";
      return FrameStatus::kMalformed;
    }
    length = length * 10 + static_cast<size_t>(c - '0');
    ++digits;
    if (length > kMaxFrameBytes) {
      *error = "frame length " + std::to_string(length) +
               " exceeds the maximum " + std::to_string(kMaxFrameBytes);
      return FrameStatus::kMalformed;
    }
  }

  // The payload grows as bytes arrive, never to the announced length ahead
  // of them: a prefix alone must not cost the reader kMaxFrameBytes.
  payload->clear();
  char chunk[1 << 16];
  while (payload->size() < length) {
    const ssize_t n = ReadBefore(
        fd, chunk, std::min(sizeof(chunk), length - payload->size()), end);
    if (n > 0) {
      payload->append(chunk, static_cast<size_t>(n));
      continue;
    }
    *error = std::string(n == 0 ? "stream ended" : ReadFailure()) + " after " +
             std::to_string(payload->size()) + " of " + std::to_string(length) +
             " frame payload bytes";
    return FrameStatus::kMalformed;
  }
  return FrameStatus::kOk;
}

bool WriteFrame(int fd, std::string_view payload) {
  std::string frame = std::to_string(payload.size());
  frame += '\n';
  frame.append(payload);
  size_t sent = 0;
  while (sent < frame.size()) {
    const ssize_t n = ::write(fd, frame.data() + sent, frame.size() - sent);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    return false;
  }
  return true;
}

ServiceResponse CallService(const std::string& socket_path,
                            const ServiceRequest& request) {
  if (socket_path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    throw std::runtime_error("socket path too long: " + socket_path);
  }
  // Serialized before the socket opens, so nothing between socket() and
  // close() can throw.
  const std::string request_bytes = request.ToJson();
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    throw std::runtime_error("socket() failed");
  }
  sockaddr_un addr = {};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    throw std::runtime_error("cannot connect to '" + socket_path +
                             "' (is sweep_serviced running?)");
  }
  std::string response_bytes;
  std::string frame_error;
  FrameStatus status = FrameStatus::kOk;
  const bool sent = WriteFrame(fd, request_bytes);
  if (sent) {
    status = ReadFrame(fd, &response_bytes, &frame_error);
  }
  ::close(fd);
  if (!sent) {
    throw std::runtime_error("failed to send the request to '" + socket_path +
                             "'");
  }
  if (status == FrameStatus::kEof) {
    throw std::runtime_error("'" + socket_path +
                             "' closed the connection without a response");
  }
  if (status != FrameStatus::kOk) {
    throw std::runtime_error("malformed response frame from '" + socket_path +
                             "': " + frame_error);
  }
  return ServiceResponse::FromJson(response_bytes, socket_path);
}

}  // namespace longstore
