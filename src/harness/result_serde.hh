/**
 * @file
 * Lossless one-line serialization of ExperimentResult.
 *
 * The campaign supervisor moves point results across two boundaries a
 * C++ object cannot cross: the process boundary of `--isolate` (the
 * point runs in a forked child and reports through a pipe) and the
 * disk boundary of the result store (svc::ResultCache: a resumed or
 * cached campaign replays completed points from disk). Both require the full result — every
 * field the report renderers consume — to round-trip exactly, so
 * doubles are emitted with max_digits10 precision and ticks verbatim:
 * deserialize(serialize(r)) reproduces bit-identical report output.
 *
 * The format is a single `TBRESULT1 key=value ...` line with quoted,
 * backslash-escaped strings — self-describing enough to store as an
 * opaque entry body, cheap enough to parse without a JSON library. The per-departure trace is intentionally not
 * carried: campaigns never enable it.
 */

#ifndef TB_HARNESS_RESULT_SERDE_HH_
#define TB_HARNESS_RESULT_SERDE_HH_

#include <string>

#include "harness/experiment.hh"

namespace tb {
namespace harness {

/** Serialize @p r to one self-contained line (no trailing newline). */
std::string serializeResult(const ExperimentResult& r);

/**
 * Rebuild a result from serializeResult() output. Throws FatalError
 * on malformed input (wrong magic, missing field, bad number).
 */
ExperimentResult deserializeResult(const std::string& line);

} // namespace harness
} // namespace tb

#endif // TB_HARNESS_RESULT_SERDE_HH_
