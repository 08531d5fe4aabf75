// The engine-mode axis of the experiment grid, shared by every backend.
//
// Which stepping pipeline a simulation runs. The names come from the graph
// engine (PR 3) but the axis now spans both backends, so the enum lives in
// core where the trial drivers and the scenario layer can name it without
// depending on graph/:
//
//  * Strict  — the sequential-generator pipelines: per-(round, chunk)
//    xoshiro streams on the graph backend, the trial's xoshiro stream on
//    the count backend. Bitwise-pinned against the frozen reference
//    steppers; the default everywhere, and what every golden trajectory is
//    recorded against.
//  * Batched — the counter-based (rng::Philox4x32) pipelines: stage-split
//    SIMD kernels addressed by (seed, round, node, draw) on the graph
//    backend; block-generated PhiloxStream uniforms feeding the same exact
//    conditional-binomial kernels on the count backend. Distributionally
//    equivalent to Strict, not bitwise (different generator): pinned by
//    the chi-square law battery and cross-mode consensus-time tests.
#pragma once

#include <cstdint>

namespace plurality {

enum class EngineMode : std::uint8_t { Strict, Batched };

}  // namespace plurality
