#include "serve/policy.hpp"

namespace deepgate::serve {

const char* close_reason_name(CloseReason reason) {
  switch (reason) {
    case CloseReason::kBudget: return "budget";
    case CloseReason::kMaxGraphs: return "max_graphs";
    case CloseReason::kDeadline: return "deadline";
    case CloseReason::kDrain: return "drain";
  }
  return "?";
}

}  // namespace deepgate::serve
