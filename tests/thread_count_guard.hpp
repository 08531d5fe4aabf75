// Scoped OpenMP thread count for tests: the constructor sets the threads a
// top-level parallel region gets, the destructor restores the old count.
// Without OpenMP it does nothing, so a test comparing thread counts still
// builds and compares one thread with one thread.
#pragma once

#if defined(PLURALITY_HAVE_OPENMP)
#include <omp.h>
#endif

namespace plurality {

class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(int threads) {
#if defined(PLURALITY_HAVE_OPENMP)
    saved_ = omp_get_max_threads();
    omp_set_num_threads(threads);
#else
    (void)threads;
#endif
  }
  ~ThreadCountGuard() {
#if defined(PLURALITY_HAVE_OPENMP)
    omp_set_num_threads(saved_);
#endif
  }
  ThreadCountGuard(const ThreadCountGuard&) = delete;
  ThreadCountGuard& operator=(const ThreadCountGuard&) = delete;

 private:
  int saved_ = 1;
};

}  // namespace plurality
