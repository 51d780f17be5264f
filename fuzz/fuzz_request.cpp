// Fuzz target: the lcrbd wire decode path — bytes -> JSON -> QueryRequest.
// This is the service's untrusted-input boundary: anything a socket peer
// sends goes through exactly this code.
#include <cstddef>
#include <cstdint>
#include <string>

#include "service/request.h"
#include "util/error.h"
#include "util/json.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);
  lcrb::JsonValue parsed;
  try {
    parsed = lcrb::JsonValue::parse(text);
  } catch (const lcrb::Error&) {
    return 0;
  }
  try {
    const auto req = lcrb::service::QueryRequest::from_json(parsed);
    // Decoded requests must re-encode and decode to the same wire form.
    const std::string wire = req.to_json().dump();
    const auto again = lcrb::service::QueryRequest::from_json(
        lcrb::JsonValue::parse(wire));
    if (again.to_json().dump() != wire) __builtin_trap();
  } catch (const lcrb::Error&) {
  }
  return 0;
}
