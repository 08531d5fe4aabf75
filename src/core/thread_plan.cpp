#include "core/thread_plan.hpp"

#if defined(PLURALITY_HAVE_OPENMP)
#include <omp.h>
#endif

namespace plurality {

unsigned available_threads() {
#if defined(PLURALITY_HAVE_OPENMP)
  if (omp_get_active_level() > 0) return 1;
  return static_cast<unsigned>(omp_get_max_threads());
#else
  return 1;
#endif
}

unsigned round_team_size(std::uint64_t n) {
  return rounds_take_team(n) ? available_threads() : 1;
}

}  // namespace plurality
