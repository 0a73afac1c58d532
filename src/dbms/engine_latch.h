#ifndef TANGO_DBMS_ENGINE_LATCH_H_
#define TANGO_DBMS_ENGINE_LATCH_H_

#include <pthread.h>

#include <system_error>

namespace tango {
namespace dbms {

/// \brief The engine's one reader/writer latch, writer-preferring.
///
/// Once a writer waits in `lock()`, new shared acquisitions (and
/// `try_lock_shared`) wait behind it, so a stream of overlapping readers
/// cannot starve writers. The price is the rule that no thread may take the
/// latch while it already holds it: a recursive `lock_shared` would queue
/// behind the waiting writer, which waits for the first hold — deadlock.
/// Satisfies Lockable and SharedLockable, so `std::unique_lock` and
/// `std::shared_lock` work on it. Like the standard mutexes, a failed
/// acquisition throws `std::system_error` rather than run unlocked: glibc
/// reports `EDEADLK` when a thread that holds the latch exclusive asks for it
/// again (a recursive shared request just deadlocks, undetected).
class EngineLatch {
 public:
  EngineLatch() {
    pthread_rwlockattr_t attr;
    pthread_rwlockattr_init(&attr);
    pthread_rwlockattr_setkind_np(&attr,
                                  PTHREAD_RWLOCK_PREFER_WRITER_NONRECURSIVE_NP);
    const int rc = pthread_rwlock_init(&rw_, &attr);
    pthread_rwlockattr_destroy(&attr);
    Check(rc);
  }
  ~EngineLatch() { pthread_rwlock_destroy(&rw_); }
  EngineLatch(const EngineLatch&) = delete;
  EngineLatch& operator=(const EngineLatch&) = delete;

  void lock() { Check(pthread_rwlock_wrlock(&rw_)); }
  void unlock() { pthread_rwlock_unlock(&rw_); }
  void lock_shared() { Check(pthread_rwlock_rdlock(&rw_)); }
  bool try_lock_shared() { return pthread_rwlock_tryrdlock(&rw_) == 0; }
  void unlock_shared() { pthread_rwlock_unlock(&rw_); }

 private:
  static void Check(int rc) {
    if (rc != 0) {
      throw std::system_error(rc, std::generic_category(), "EngineLatch");
    }
  }

  pthread_rwlock_t rw_;
};

}  // namespace dbms
}  // namespace tango

#endif  // TANGO_DBMS_ENGINE_LATCH_H_
