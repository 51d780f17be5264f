// Structured error taxonomy of the query service — the wire-protocol v2
// error surface and the dispatcher's admission-control vocabulary.
//
// Every failure a client can observe maps to one ErrorCode. A code fixes its
// category (which subsystem refused) and whether retrying the identical
// request can ever succeed:
//
//   code                 category    retryable   emitted when
//   invalid_argument     request     no          malformed/unvalidatable request
//   unsupported_version  request     no          "v" outside [1, 2]
//   unknown_dataset      session     no          dataset not in the registry
//   deadline_rejected    deadline    no          budget already spent at
//                                                admission (deadline_ms == 0 —
//                                                the deterministic case tests
//                                                pin)
//   deadline_expired     deadline    yes         admitted, but the budget
//                                                lapsed while queued or at a
//                                                stage boundary
//   queue_full           capacity    yes         tenant's queued quota hit —
//                                                the request was shed
//   shutdown             capacity    yes         service stopping; queued work
//                                                failed rather than dropped
//   cancelled            cancelled   no          removed from the queue by a
//                                                cancel verb
//   internal             internal    no          anything else
//
// Protocol v1 renders only the message string (unchanged since PR 4); v2
// renders {code, category, retryable, message}. The taxonomy is part of the
// deterministic payload: for a fixed request and service state the code is
// as reproducible as a protector set.
#pragma once

#include <cstdint>
#include <string>

#include "util/error.h"

namespace lcrb::service {

enum class ErrorCode : std::uint8_t {
  kNone,  ///< placeholder for ok results; never serialized
  kInvalidArgument,
  kUnsupportedVersion,
  kUnknownDataset,
  kDeadlineRejected,
  kDeadlineExpired,
  kQueueFull,
  kShutdown,
  kCancelled,
  kInternal,
};

std::string to_string(ErrorCode code);

/// The code's fixed category: request | session | deadline | capacity |
/// cancelled | internal.
std::string error_category(ErrorCode code);

/// True when retrying the identical request against the same service can
/// succeed (transient capacity/timing failures), false when the request
/// itself can never pass (validation, determinstic rejection, cancellation).
bool error_retryable(ErrorCode code);

/// lcrb::Error specialization carrying a taxonomy code. The service layers
/// throw this wherever the failure class is known; a bare lcrb::Error from
/// deeper layers is classified as invalid_argument (every deep throw is a
/// validation REQUIRE on request-derived values).
class ServiceError : public Error {
 public:
  ServiceError(ErrorCode code, const std::string& message)
      : Error(message), code_(code) {}
  ErrorCode code() const { return code_; }

 private:
  ErrorCode code_;
};

}  // namespace lcrb::service
