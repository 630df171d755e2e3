// KeyHandle: a resolved, registry-lookup-free name for one engine key.
//
// HistogramEngine::Resolve(key) resolves the key exactly once (through
// the calling thread's reader table, or the registry on a miss) and hands
// back a KeyHandle — a stable pointer to the key's
// internal state (KeyStates live behind unique_ptrs in a registry that
// never erases, so the pointer is valid for the engine's lifetime). Every
// query entry point has a handle overload; a steady-state read through a
// handle costs one relaxed epoch load plus the arena lookup — no
// registry lock, no shared_ptr refcount traffic (the thread's reader
// table slot for the key holds the leased snapshot).
//
// This is the object a long-lived reader holds: an optimizer session, a
// bench reader loop, or — in the distributed tier — a socket server's
// per-connection state. Transient callers can keep using the string-keyed
// API, which resolves the key per call (a reader table hit in the steady
// state) and re-acquires the published snapshot per call instead of
// leasing it.
//
// A KeyHandle is engine-bound: using a handle after its engine is
// destroyed, or against a different engine, is undefined (debug-checked
// where cheap). Handles are freely copyable and shareable across threads
// — the per-thread lease state lives in thread-local storage, not in the
// handle.

#ifndef DYNHIST_ENGINE_KEY_HANDLE_H_
#define DYNHIST_ENGINE_KEY_HANDLE_H_

#include <cstdint>
#include <string_view>

#include "src/engine/key_state.h"

namespace dynhist::engine {

class HistogramEngine;

/// One range-estimate request; EstimateRangeBatch amortizes lease
/// revalidation and counter traffic across a span of these.
struct RangeQuery {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
};

class KeyHandle {
 public:
  /// An empty handle; valid() is false and queries through it are
  /// programming errors (DH_CHECKed on the engine side).
  KeyHandle() = default;

  bool valid() const { return state_ != nullptr; }

  /// The key this handle resolves, or "" for an empty handle.
  std::string_view key() const {
    return state_ == nullptr ? std::string_view() : state_->name;
  }

  /// The key's published snapshot epoch right now (0 = never published).
  /// Never ahead of the visible snapshot: a read through this handle, or
  /// a Snapshot() of the key, made after this call returns an epoch at
  /// least this large.
  std::uint64_t epoch() const {
    return state_ == nullptr
               ? 0
               : state_->epoch.load(std::memory_order_acquire);
  }

  friend bool operator==(const KeyHandle& a, const KeyHandle& b) {
    return a.state_ == b.state_;
  }

 private:
  friend class HistogramEngine;
  explicit KeyHandle(internal::KeyState* state) : state_(state) {}

  internal::KeyState* state_ = nullptr;
};

}  // namespace dynhist::engine

#endif  // DYNHIST_ENGINE_KEY_HANDLE_H_
