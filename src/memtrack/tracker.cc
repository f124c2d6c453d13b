#include "memtrack/tracker.h"

#include "memtrack/explicit_engine.h"
#include "memtrack/mprotect_engine.h"

namespace ickpt::memtrack {

std::string_view to_string(EngineKind kind) noexcept {
  switch (kind) {
    case EngineKind::kMProtect: return "mprotect";
    case EngineKind::kExplicit: return "explicit";
  }
  return "?";
}

Result<std::unique_ptr<DirtyTracker>> make_tracker(EngineKind kind) {
  switch (kind) {
    case EngineKind::kMProtect:
      return std::unique_ptr<DirtyTracker>(new MProtectEngine());
    case EngineKind::kExplicit:
      return std::unique_ptr<DirtyTracker>(new ExplicitEngine());
  }
  return invalid_argument("unknown engine kind");
}

}  // namespace ickpt::memtrack
