// A reader-writer lock that prefers writers.
//
// glibc's std::shared_mutex prefers readers: while any reader holds it, a
// new reader gets in even if a writer is waiting, so readers that
// re-acquire it back to back can hold a writer off indefinitely. RwLock is
// a pthread rwlock of kind PTHREAD_RWLOCK_PREFER_WRITER_NONRECURSIVE_NP: a
// waiting writer blocks new readers, so it gets in as soon as the readers
// already inside leave.
//
// The price is that the shared side is not recursive: a thread that holds
// it and asks for it again deadlocks if a writer queued in between. Take
// it once per call chain.
//
// std::unique_lock takes the exclusive side, std::shared_lock the shared
// one.

#ifndef I3_COMMON_RW_LOCK_H_
#define I3_COMMON_RW_LOCK_H_

#include <pthread.h>

namespace i3 {

class RwLock {
 public:
  RwLock() {
    pthread_rwlockattr_t attr;
    pthread_rwlockattr_init(&attr);
#if defined(__GLIBC__)
    pthread_rwlockattr_setkind_np(
        &attr, PTHREAD_RWLOCK_PREFER_WRITER_NONRECURSIVE_NP);
#endif
    pthread_rwlock_init(&lock_, &attr);
    pthread_rwlockattr_destroy(&attr);
  }
  ~RwLock() { pthread_rwlock_destroy(&lock_); }

  RwLock(const RwLock&) = delete;
  RwLock& operator=(const RwLock&) = delete;

  void lock() { pthread_rwlock_wrlock(&lock_); }
  void unlock() { pthread_rwlock_unlock(&lock_); }

  void lock_shared() { pthread_rwlock_rdlock(&lock_); }
  void unlock_shared() { pthread_rwlock_unlock(&lock_); }

 private:
  pthread_rwlock_t lock_;
};

}  // namespace i3

#endif  // I3_COMMON_RW_LOCK_H_
