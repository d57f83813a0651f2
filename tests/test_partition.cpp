/**
 * @file
 * Tests for the half-gates expansion (paper §III-D, Table I):
 * per-partition opcodes, deduced transistor selects, dynamic sections,
 * and rejection of patterns outside the restricted partition model —
 * plus the per-device HalfGateTable that interns expansions: a lookup
 * must equal a fresh expansion, and a malformed word must throw the
 * same error on every occurrence without being interned.
 */
#include <gtest/gtest.h>

#include <string>

#include "common/config.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "uarch/partition.hpp"

using namespace pypim;

namespace
{

Geometry
geo()
{
    return testGeometry();  // 32 partitions, 32-column partitions
}

/** Column address of (partition, intra index) for the test geometry. */
uint32_t
col(uint32_t part, uint32_t idx)
{
    return part * 32 + idx;
}

const Section *
sectionWithOutput(const HalfGates &hg, uint32_t outCol)
{
    for (uint32_t i = 0; i < hg.numSections; ++i)
        if (hg.sections[i].outCol == static_cast<int32_t>(outCol))
            return &hg.sections[i];
    return nullptr;
}

} // namespace

TEST(Partition, SingleIntraPartitionGate)
{
    const Geometry g = geo();
    const MicroOp op =
        MicroOp::logicH(Gate::Nor, col(3, 0), col(3, 1), col(3, 2), 3, 0);
    const HalfGates hg = expandLogicH(op, g);
    EXPECT_EQ(hg.numGates, 1u);
    // Partition 3 applies all three voltages: opcode (InA, InB) -> Out.
    EXPECT_EQ(hg.opcodes[3],
              halfgate::inA | halfgate::inB | halfgate::out);
    const Section *sec = sectionWithOutput(hg, col(3, 2));
    ASSERT_NE(sec, nullptr);
    EXPECT_EQ(sec->numIn, 2u);
}

TEST(Partition, CrossPartitionGateLeftToRight)
{
    // Paper Fig. 8(c): inputs in partition 0 (InA) and 1 (InB), output
    // in partition 1 (span [0, 1]).
    const Geometry g = geo();
    const MicroOp op =
        MicroOp::logicH(Gate::Nor, col(0, 0), col(1, 1), col(1, 3), 1, 0);
    const HalfGates hg = expandLogicH(op, g);
    EXPECT_EQ(hg.opcodes[0], halfgate::inA);
    EXPECT_EQ(hg.opcodes[1], halfgate::inB | halfgate::out);
    // Transistor 0 (between partitions 0 and 1) must conduct; the one
    // right of partition 1 must be cut (partition 1 has an Out half).
    EXPECT_TRUE(hg.conducting[0]);
    EXPECT_FALSE(hg.conducting[1]);
    const Section *sec = sectionWithOutput(hg, col(1, 3));
    ASSERT_NE(sec, nullptr);
    EXPECT_EQ(sec->begin, 0u);
    EXPECT_EQ(sec->end, 2u);
    EXPECT_EQ(sec->numIn, 2u);
}

TEST(Partition, RightToLeftGate)
{
    // Inputs in partition 5, output in partition 2 (reverse direction).
    const Geometry g = geo();
    const MicroOp op =
        MicroOp::logicH(Gate::Nor, col(5, 0), col(5, 1), col(2, 3), 2, 0);
    const HalfGates hg = expandLogicH(op, g);
    const Section *sec = sectionWithOutput(hg, col(2, 3));
    ASSERT_NE(sec, nullptr);
    EXPECT_EQ(sec->begin, 2u);
    EXPECT_EQ(sec->end, 6u);
    // Cut left of partition 2 and right of partition 5.
    EXPECT_FALSE(hg.conducting[1]);
    EXPECT_FALSE(hg.conducting[5]);
    EXPECT_TRUE(hg.conducting[2]);
    EXPECT_TRUE(hg.conducting[3]);
    EXPECT_TRUE(hg.conducting[4]);
}

TEST(Partition, FullyParallelPattern)
{
    // Per-partition gate repeated across all 32 partitions (paper
    // Fig. 7(b)): one section per partition.
    const Geometry g = geo();
    const MicroOp op =
        MicroOp::logicH(Gate::Nor, col(0, 0), col(0, 1), col(0, 2), 31, 1);
    const HalfGates hg = expandLogicH(op, g);
    EXPECT_EQ(hg.numGates, 32u);
    for (uint32_t t = 0; t + 1 < 32; ++t)
        EXPECT_FALSE(hg.conducting[t]) << "transistor " << t;
    uint32_t active = 0;
    for (uint32_t i = 0; i < hg.numSections; ++i)
        if (hg.sections[i].active())
            ++active;
    EXPECT_EQ(active, 32u);
}

TEST(Partition, SemiParallelPattern)
{
    // Paper Fig. 7(c)-style: gates (p -> p+2) repeated with stride 4:
    // (0 -> 2), (4 -> 6), ..., non-intersecting sections.
    const Geometry g = geo();
    const MicroOp op =
        MicroOp::logicH(Gate::Nor, col(0, 0), col(2, 1), col(2, 3), 30, 4);
    const HalfGates hg = expandLogicH(op, g);
    EXPECT_EQ(hg.numGates, 8u);
    for (uint32_t k = 0; k < 8; ++k) {
        const Section *sec = sectionWithOutput(hg, col(4 * k + 2, 3));
        ASSERT_NE(sec, nullptr) << "gate " << k;
        EXPECT_EQ(sec->numIn, 2u);
        EXPECT_EQ(sec->inCol[0], static_cast<int32_t>(col(4 * k, 0)));
        EXPECT_EQ(sec->inCol[1], static_cast<int32_t>(col(4 * k + 2, 1)));
    }
}

TEST(Partition, PeriodicInitPattern)
{
    const Geometry g = geo();
    const MicroOp op =
        MicroOp::logicH(Gate::Init1, 0, 0, col(0, 7), 31, 1);
    const HalfGates hg = expandLogicH(op, g);
    EXPECT_EQ(hg.numGates, 32u);
    for (uint32_t p = 0; p < 32; ++p)
        EXPECT_EQ(hg.opcodes[p], halfgate::out);
}

TEST(Partition, NotGateHasSingleInputHalf)
{
    const Geometry g = geo();
    const MicroOp op =
        MicroOp::logicH(Gate::Not, col(4, 0), col(4, 0), col(7, 1), 7, 0);
    const HalfGates hg = expandLogicH(op, g);
    EXPECT_EQ(hg.opcodes[4], halfgate::inA);
    EXPECT_EQ(hg.opcodes[7], halfgate::out);
    const Section *sec = sectionWithOutput(hg, col(7, 1));
    ASSERT_NE(sec, nullptr);
    EXPECT_EQ(sec->numIn, 1u);
}

TEST(Partition, RejectsInnerInputOutsideSpan)
{
    // inB strictly outside [min(pA, pOut), max(pA, pOut)] cannot be
    // expressed by the deduced transistor selects.
    const Geometry g = geo();
    const MicroOp op =
        MicroOp::logicH(Gate::Nor, col(2, 0), col(9, 1), col(5, 3), 5, 0);
    EXPECT_THROW(expandLogicH(op, g), InternalError);
}

TEST(Partition, RejectsOverlappingRepetition)
{
    // Span is 3 partitions but the stride is 2: repeated gates overlap.
    const Geometry g = geo();
    const MicroOp op =
        MicroOp::logicH(Gate::Nor, col(0, 0), col(2, 1), col(2, 3), 30, 2);
    EXPECT_THROW(expandLogicH(op, g), InternalError);
}

TEST(Partition, RejectsRepetitionLeavingRange)
{
    const Geometry g = geo();
    // pEnd = 33 > 31: repeated gate would leave the partition range
    // (pEnd itself is range-checked through the claimed partitions).
    const MicroOp op =
        MicroOp::logicH(Gate::Nor, col(0, 0), col(0, 1), col(0, 2), 33, 1);
    EXPECT_THROW(expandLogicH(op, g), InternalError);
}

TEST(Partition, RejectsStepNotDividingSpan)
{
    const Geometry g = geo();
    const MicroOp op =
        MicroOp::logicH(Gate::Nor, col(0, 0), col(0, 1), col(0, 2), 31, 3);
    EXPECT_THROW(expandLogicH(op, g), InternalError);
}

TEST(Partition, GateCountsMatchParallelismForms)
{
    const Geometry g = geo();
    // Serial (Fig. 7(a)): one gate.
    EXPECT_EQ(expandLogicH(MicroOp::logicH(Gate::Nor, col(0, 0),
                                           col(11, 1), col(31, 2), 31, 0),
                           g).numGates, 1u);
    // Parallel (Fig. 7(b)): N gates.
    EXPECT_EQ(expandLogicH(MicroOp::logicH(Gate::Nor, col(0, 0),
                                           col(0, 1), col(0, 2), 31, 1),
                           g).numGates, 32u);
    // Semi-parallel (Fig. 7(c)): N/4 gates at stride 4.
    EXPECT_EQ(expandLogicH(MicroOp::logicH(Gate::Nor, col(0, 0),
                                           col(1, 1), col(1, 2), 29, 4),
                           g).numGates, 8u);
}

// --- interned expansion table ----------------------------------------

namespace
{

/** Message of the InternalError @p fn throws, or "" if it returns. */
template <typename Fn>
std::string
internalErrorOf(Fn &&fn)
{
    try {
        fn();
    } catch (const InternalError &e) {
        return e.what();
    }
    return "";
}

/** Field-by-field comparison of an entry with a fresh expansion. */
::testing::AssertionResult
sameExpansion(const GateSections &entry, const HalfGates &fresh)
{
    if (entry.gate != fresh.gate)
        return ::testing::AssertionFailure() << "gate differs";
    if (entry.sections.size() != fresh.numSections)
        return ::testing::AssertionFailure()
               << "section count " << entry.sections.size() << " vs "
               << fresh.numSections;
    for (uint32_t s = 0; s < fresh.numSections; ++s) {
        const Section &a = entry.sections[s];
        const Section &b = fresh.sections[s];
        if (a.begin != b.begin || a.end != b.end ||
            a.outCol != b.outCol || a.inCol != b.inCol ||
            a.numIn != b.numIn)
            return ::testing::AssertionFailure()
                   << "section " << s << " differs";
    }
    return ::testing::AssertionSuccess();
}

} // namespace

TEST(HalfGateTable, FuzzedLookupsMatchFreshExpansion)
{
    // Random LogicH words over the test geometry: half are fully
    // random fields (mostly malformed: spans, overlaps, pEnd out of
    // range), half are structured gates inside one partition span
    // with a random repetition (mostly valid). Each word is looked up
    // three times, interleaved with its repeats, so hits, misses and
    // repeated malformed words are all exercised.
    const Geometry g = geo();
    HalfGateTable table(g);
    Rng rng(20240611);
    const auto pick = [&](uint32_t n) { return rng.word() % n; };
    size_t valid = 0, malformed = 0;
    for (int i = 0; i < 4000; ++i) {
        const Gate gate = static_cast<Gate>(pick(4));
        Word w;
        if (i % 2 == 0) {
            w = enc::logicH(gate, pick(g.cols), pick(g.cols),
                            pick(g.cols), pick(64), pick(64));
        } else {
            const uint32_t p = pick(4);
            const uint32_t span = pick(3);
            const uint32_t step = span + 1 + pick(3);
            w = enc::logicH(gate, col(p, pick(32)),
                            col(p + pick(span + 1), pick(32)),
                            col(p + span, pick(32)),
                            p + span + step * pick(8), pick(2) * step);
        }
        const MicroOp op = MicroOp::decode(w);
        const std::string want =
            internalErrorOf([&] { (void)expandLogicH(op, g); });
        for (int rep = 0; rep < 3; ++rep) {
            const size_t before = table.size();
            if (!want.empty()) {
                EXPECT_EQ(internalErrorOf([&] { table.lookup(w); }), want)
                    << "word " << std::hex << w;
                EXPECT_EQ(table.size(), before)
                    << "a malformed word must not be interned";
                continue;
            }
            const GateSections &entry = table.lookup(w);
            EXPECT_TRUE(sameExpansion(entry, expandLogicH(op, g)))
                << "word " << std::hex << w;
            EXPECT_EQ(&entry, &table.lookup(w))
                << "an entry must keep its address";
        }
        ++(want.empty() ? valid : malformed);
    }
    // The generator must really cover both outcomes.
    EXPECT_GT(valid, 500u);
    EXPECT_GT(malformed, 500u);
}

TEST(HalfGateTable, EachWordIsExpandedOnce)
{
    const Geometry g = geo();
    HalfGateTable table(g);
    const Word a =
        MicroOp::logicH(Gate::Nor, col(0, 0), col(0, 1), col(0, 2), 31, 1)
            .encode();
    const Word b =
        MicroOp::logicH(Gate::Init1, 0, 0, col(0, 5), 31, 1).encode();
    const GateSections *first = &table.lookup(a);
    EXPECT_EQ(table.size(), 1u);
    table.lookup(b);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(&table.lookup(a), first);
        table.lookup(b);
    }
    EXPECT_EQ(table.size(), 2u);
}
