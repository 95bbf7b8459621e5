#include "serve/policy.hpp"

namespace deepgate::serve {

const char* close_reason_name(CloseReason reason) {
  switch (reason) {
    case CloseReason::kBudget: return "budget";
    case CloseReason::kMaxGraphs: return "max_graphs";
    case CloseReason::kEmpty: return "empty";
    case CloseReason::kShare: return "share";
    case CloseReason::kDrain: return "drain";
  }
  return "?";
}

}  // namespace deepgate::serve
