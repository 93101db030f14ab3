// Static-analysis annotation vocabulary for the whole-program hot-path
// analyzer (tools/lint_hotpath.py, DESIGN.md §11).
//
// The macros below expand to nothing: they are purely lexical markers the
// analyzer reads off the source text, checked by our own call-graph pass
// rather than the compiler. Placing one before a function
// *definition* declares a realtime-safety contract for everything that
// definition transitively calls:
//
//   EXPLORA_REALTIME     The strongest tier: the function is on a
//                        TTI-loop / kernel / coalition hot path and may
//                        not reach ANY sink - no heap allocation, no lock
//                        acquisition, no blocking call (condition-variable
//                        waits, sleeps, stream or file I/O) and no throw.
//                        Examples: Gnb::run_tti, the per-slice scheduler
//                        grant loops, gemm::run and its kernels, the
//                        telemetry LocalHistogram fold.
//
//   EXPLORA_NONBLOCKING  The weaker tier: the function may allocate (e.g.
//                        batch staging buffers sized per call) but must
//                        never lock or block, so it can run inside pool
//                        workers without convoying them. Examples:
//                        Mlp::forward_batch, the SHAP coalition staging
//                        path.
//
// The analyzer seeds ALLOCATES/LOCKS/BLOCKS/THROWS facts at known sinks
// (operator new / malloc, growing container ops, std:: lock types and
// .lock(), condition-variable waits, stream I/O, throw, std::this_thread)
// and propagates them transitively up the extracted call graph; an
// annotated function whose reachable set contains a forbidden fact fails
// the lint with the full offending call chain. A deliberate exception is
// waived at the offending line with
//
//   // hotpath-ok: <reason>
//
// mirroring the det-ok marker of the determinism lint; the reason is
// mandatory and should say why the sink cannot fire in steady state
// (e.g. a scratch vector that retains capacity across TTIs) or why it is
// acceptable (a bounded CAS retry loop).
//
// Annotate definitions, not declarations: the analyzer binds a marker to
// the function body that follows it, and a single source of truth per
// function keeps contract and implementation in one place.
#pragma once

#define EXPLORA_REALTIME
#define EXPLORA_NONBLOCKING
