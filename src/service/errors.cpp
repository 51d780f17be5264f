#include "service/errors.h"

namespace lcrb::service {

std::string to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kNone: return "none";
    case ErrorCode::kInvalidArgument: return "invalid_argument";
    case ErrorCode::kUnsupportedVersion: return "unsupported_version";
    case ErrorCode::kUnknownDataset: return "unknown_dataset";
    case ErrorCode::kDeadlineRejected: return "deadline_rejected";
    case ErrorCode::kDeadlineExpired: return "deadline_expired";
    case ErrorCode::kQueueFull: return "queue_full";
    case ErrorCode::kShutdown: return "shutdown";
    case ErrorCode::kCancelled: return "cancelled";
    case ErrorCode::kInternal: return "internal";
  }
  return "internal";
}

std::string error_category(ErrorCode code) {
  switch (code) {
    case ErrorCode::kNone: return "none";
    case ErrorCode::kInvalidArgument:
    case ErrorCode::kUnsupportedVersion:
      return "request";
    case ErrorCode::kUnknownDataset: return "session";
    case ErrorCode::kDeadlineRejected:
    case ErrorCode::kDeadlineExpired:
      return "deadline";
    case ErrorCode::kQueueFull:
    case ErrorCode::kShutdown:
      return "capacity";
    case ErrorCode::kCancelled: return "cancelled";
    case ErrorCode::kInternal: return "internal";
  }
  return "internal";
}

bool error_retryable(ErrorCode code) {
  switch (code) {
    case ErrorCode::kDeadlineExpired:
    case ErrorCode::kQueueFull:
    case ErrorCode::kShutdown:
      return true;
    default:
      return false;
  }
}

}  // namespace lcrb::service
