// SIMD slab probing — the CPU analog of the GPU's warp-parallel compare.
//
// On the GPU, one slab operation is a single warp-wide step: all 32 lanes
// load one word of a 128-byte slab, compare against the query, and a
// ballot + ffs pick the answer. The host equivalent is a vector compare
// over the 32 words of a slab producing the same 32-bit lane mask ballot()
// yields, consumed with the same ffs()/popc() idiom.
//
// Two backends produce identical masks:
//   * AVX2 — four 256-bit compares per probe (compiled when the build
//     targets AVX2, e.g. -march=native on any post-2013 x86).
//   * portable — a plain fixed-trip loop the compiler auto-vectorizes
//     (SSE2/NEON) or unrolls; also the reference for differential tests.
//
// The backend is chosen at runtime: AVX2 when compiled in, unless
// set_probe_backend() forces the portable path (the differential test and
// micro_probe drive both in one process).
//
// Reads are plain (non-atomic) vector loads, exactly like the GPU's
// non-atomic warp-wide slab read: safe under the paper's phase-concurrent
// model, where a stale word is resolved by the CAS that claims a slot.
// The portable loops read through simt::racy_load — a plain load in normal
// builds (the loops must keep auto-vectorizing), a relaxed atomic under
// ThreadSanitizer so the TSan CI job sees the by-design races as
// annotated rather than silencing them with a suppression file.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>

#include "src/memory/slab_arena.hpp"
#include "src/simt/atomics.hpp"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace sg::simt {

/// Lane masks of one slab-wide compare: bit w is set when word w of the
/// slab equals the key / EMPTY sentinel / TOMBSTONE sentinel. The layout
/// matches ballot(): consume with ffs() (1-based) or std::countr_zero.
struct SlabProbe {
  std::uint32_t match = 0;
  std::uint32_t empty = 0;
  std::uint32_t tombstone = 0;
};

enum class ProbeBackend : int { kSimd = 0, kPortable = 1 };

namespace detail {

inline std::atomic<int> g_probe_backend{static_cast<int>(ProbeBackend::kSimd)};

}  // namespace detail

/// Force a backend (tests); kSimd silently degrades to portable when AVX2
/// was not compiled in.
inline void set_probe_backend(ProbeBackend backend) noexcept {
  detail::g_probe_backend.store(static_cast<int>(backend),
                                std::memory_order_relaxed);
}

/// True when probes will execute the AVX2 path.
inline bool probe_uses_simd() noexcept {
#if defined(__AVX2__)
  return detail::g_probe_backend.load(std::memory_order_relaxed) ==
         static_cast<int>(ProbeBackend::kSimd);
#else
  return false;
#endif
}

// ---------------------------------------------------------------------------
// Portable backend: fixed-trip loops over the 32 slab words. With any
// vectorizing compiler each becomes a handful of SIMD compares; without,
// it is still branch-free.
// ---------------------------------------------------------------------------

inline std::uint32_t match_mask_portable(const std::uint32_t* words,
                                         std::uint32_t key) noexcept {
  std::uint32_t mask = 0;
  for (int w = 0; w < memory::kWordsPerSlab; ++w) {
    mask |= static_cast<std::uint32_t>(racy_load(words[w]) == key) << w;
  }
  return mask;
}

inline SlabProbe probe_slab_portable(const std::uint32_t* words,
                                     std::uint32_t key, std::uint32_t empty_key,
                                     std::uint32_t tombstone_key) noexcept {
  SlabProbe p;
  for (int w = 0; w < memory::kWordsPerSlab; ++w) {
    const std::uint32_t v = racy_load(words[w]);
    p.match |= static_cast<std::uint32_t>(v == key) << w;
    p.empty |= static_cast<std::uint32_t>(v == empty_key) << w;
    p.tombstone |= static_cast<std::uint32_t>(v == tombstone_key) << w;
  }
  return p;
}

// ---------------------------------------------------------------------------
// AVX2 backend: 128 bytes = four 256-bit lanes; movemask packs each compare
// into 8 mask bits, mirroring __ballot_sync's bit-per-lane result.
// ---------------------------------------------------------------------------

#if defined(__AVX2__)

inline std::uint32_t match_mask_avx2(const std::uint32_t* words,
                                     std::uint32_t key) noexcept {
  const __m256i needle = _mm256_set1_epi32(static_cast<int>(key));
  std::uint32_t mask = 0;
  for (int i = 0; i < 4; ++i) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(words + i * 8));
    const int bits = _mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(v, needle)));
    mask |= static_cast<std::uint32_t>(bits) << (i * 8);
  }
  return mask;
}

inline SlabProbe probe_slab_avx2(const std::uint32_t* words, std::uint32_t key,
                                 std::uint32_t empty_key,
                                 std::uint32_t tombstone_key) noexcept {
  const __m256i needle = _mm256_set1_epi32(static_cast<int>(key));
  const __m256i empty = _mm256_set1_epi32(static_cast<int>(empty_key));
  const __m256i tomb = _mm256_set1_epi32(static_cast<int>(tombstone_key));
  SlabProbe p;
  for (int i = 0; i < 4; ++i) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(words + i * 8));
    const int m = _mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(v, needle)));
    const int e = _mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(v, empty)));
    const int t = _mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(v, tomb)));
    p.match |= static_cast<std::uint32_t>(m) << (i * 8);
    p.empty |= static_cast<std::uint32_t>(e) << (i * 8);
    p.tombstone |= static_cast<std::uint32_t>(t) << (i * 8);
  }
  return p;
}

#endif  // __AVX2__

// ---------------------------------------------------------------------------
// Dispatching entry points used by the slabhash hot paths.
// ---------------------------------------------------------------------------

/// Bit w set iff words[w] == key.
inline std::uint32_t match_mask(const std::uint32_t* words,
                                std::uint32_t key) noexcept {
#if defined(__AVX2__)
  if (probe_uses_simd()) return match_mask_avx2(words, key);
#endif
  return match_mask_portable(words, key);
}

/// One probe computes all three masks in a single pass over the slab.
inline SlabProbe probe_slab(const std::uint32_t* words, std::uint32_t key,
                            std::uint32_t empty_key,
                            std::uint32_t tombstone_key) noexcept {
#if defined(__AVX2__)
  if (probe_uses_simd()) {
    return probe_slab_avx2(words, key, empty_key, tombstone_key);
  }
#endif
  return probe_slab_portable(words, key, empty_key, tombstone_key);
}

/// Bit w set iff words[w] == key (convenience over probe_slab for callers
/// that only need one sentinel).
inline std::uint32_t empty_mask(const std::uint32_t* words,
                                std::uint32_t empty_key) noexcept {
  return match_mask(words, empty_key);
}

inline std::uint32_t tombstone_mask(const std::uint32_t* words,
                                    std::uint32_t tombstone_key) noexcept {
  return match_mask(words, tombstone_key);
}

/// Mask with every bit below bit `w` set (w may be >= 32, e.g. the result
/// of countr_zero on an empty mask). Companion to the probe masks: `live
/// slots = keymask & ~tombstones & bits_below(first_empty)`.
constexpr std::uint32_t bits_below(int w) noexcept {
  return w >= 32 ? 0xFFFFFFFFu : (1u << w) - 1u;
}

/// Relaxed 128-byte slab snapshot: plain (non-atomic) vector loads into a
/// local copy, the host stand-in for a warp's one-shot coalesced slab read.
/// Used on multi-slab bucket chains so the next-pointer and the probed
/// words come from one read of the slab; single-slab buckets probe the
/// shared words directly and skip the copy.
inline void snapshot_slab(const memory::Slab& slab,
                          std::uint32_t* out) noexcept {
#if SG_TSAN
  // memcpy is TSan-intercepted; copy word-wise through the annotation.
  for (int w = 0; w < memory::kWordsPerSlab; ++w) {
    out[w] = racy_load(slab.words[w]);
  }
#else
  std::memcpy(out, slab.words, sizeof(slab.words));
#endif
}

}  // namespace sg::simt
