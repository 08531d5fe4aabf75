// The rule tags shared by the ISA-specific SIMD translation units
// (batched_simd_avx512.cpp / batched_simd_avx2.cpp). No intrinsics live here.
//
// Nothing here has a body. An ISA TU must not emit a weak (inline or
// template) definition: the linker may keep that copy for callers in
// portable TUs, which then execute ISA instructions on hosts without the
// ISA. CI checks the ISA objects with nm for exactly this.
#pragma once

#include "graph/batched_simd.hpp"

namespace plurality::graph::simd {

struct MajorityTag {};
struct VoterTag {};
struct UndecidedTag {};

}  // namespace plurality::graph::simd
