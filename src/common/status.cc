#include "common/status.h"

namespace tango {

namespace {
const char* CodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "Invalid argument";
    case StatusCode::kNotFound:
      return "Not found";
    case StatusCode::kAlreadyExists:
      return "Already exists";
    case StatusCode::kParseError:
      return "Parse error";
    case StatusCode::kTypeError:
      return "Type error";
    case StatusCode::kNotSupported:
      return "Not supported";
    case StatusCode::kInternal:
      return "Internal error";
    case StatusCode::kIOError:
      return "IO error";
    case StatusCode::kUnavailable:
      return "Unavailable";
    case StatusCode::kTimeout:
      return "Timeout";
    case StatusCode::kAborted:
      return "Aborted";
  }
  return "Unknown";
}
}  // namespace

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = CodeName(code_);
  out += ": ";
  out += msg_;
  return out;
}

}  // namespace tango
