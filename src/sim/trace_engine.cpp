#include "sim/trace_engine.hpp"

namespace pypim
{

void
TraceEngine::execute(const Word *ops, size_t n)
{
    forEachSegment(ops, n, [&](const Word *seg, size_t len) {
        buildSegmentTrace(seg, len, gates_, mask_, stats_, trace_);
        replayTrace(trace_);
    });
}

} // namespace pypim
