/**
 * @file
 * The width-packed off-chip memory (src/isa/memory.h) against a flat
 * std::vector<int64_t> model. Interpreter::run and runLegacy share
 * MemoryModel, so their parity tests cannot see a memory fault; this
 * suite is the memory's own oracle. It covers rows that cross page
 * boundaries, values one step past each width class, promotion in
 * the middle of a row, deep copies, residency, and overflow-safe
 * bounds checks.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/common/prng.h"
#include "src/isa/memory.h"

namespace bitfusion {
namespace {

constexpr std::uint64_t kPage = MemoryModel::kPageWords;

/**
 * Every width-class edge and the value one step past it: +-2^7,
 * +-2^15 and +-2^31 around each edge, and the int64 extremes.
 */
std::vector<std::int64_t>
edgeValues()
{
    constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    std::vector<std::int64_t> values = {0, 1, -1, kMin, kMax};
    for (unsigned bits : {7u, 15u, 31u}) {
        const std::int64_t edge = std::int64_t{1} << bits;
        for (std::int64_t step : {-1, 0, 1}) {
            values.push_back(edge + step);
            values.push_back(-edge + step);
        }
    }
    return values;
}

/** A random value: mostly small, often at a class edge. */
std::int64_t
randomValue(Prng &prng, const std::vector<std::int64_t> &edges)
{
    const std::uint64_t kind = prng.below(4);
    if (kind == 0)
        return static_cast<std::int64_t>(prng.below(2));
    if (kind == 1)
        return edges[prng.below(edges.size())];
    if (kind == 2)
        return prng.nextSigned(8);
    return prng.nextSigned(16u << prng.below(3));
}

/** A word address near a page edge more often than not. */
std::uint64_t
randomAddr(Prng &prng, std::uint64_t size)
{
    if (prng.below(2) == 0)
        return prng.below(size);
    const std::uint64_t page = prng.below((size + kPage - 1) / kPage);
    const std::uint64_t near = page * kPage + prng.below(8);
    const std::uint64_t addr = near >= 4 ? near - 4 : near;
    return std::min(addr, size - 1);
}

/** Words [addr, addr + n) of @p model. */
std::vector<std::int64_t>
slice(const std::vector<std::int64_t> &model, std::uint64_t addr,
      std::uint64_t n)
{
    return {model.begin() + addr, model.begin() + addr + n};
}

/** Every word of @p mem equals @p model, through read() and load(). */
void
expectSame(const MemoryModel &mem, const std::vector<std::int64_t> &model)
{
    ASSERT_EQ(mem.size(), model.size());
    std::vector<std::int64_t> all(model.size(), -7);
    mem.load(0, all.size(), all.data());
    EXPECT_EQ(all, model);
    for (std::uint64_t a = 0; a < model.size(); ++a)
        ASSERT_EQ(mem.read(a), model[a]) << "word " << a;
}

/**
 * A seeded sequence of allocate/write/store/load/writeSpan calls and
 * copies, mirrored on a flat vector. Rows reach two pages, so they
 * cross page edges; values hit every class edge, so stores promote
 * pages mid-row.
 */
TEST(Memory, DifferentialFuzzAgainstFlatVector)
{
    const std::vector<std::int64_t> edges = edgeValues();
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        Prng prng(seed);
        MemoryModel mem;
        std::vector<std::int64_t> model;
        const std::uint64_t first = 1 + prng.below(3 * kPage);
        EXPECT_EQ(mem.allocate(first), 0u);
        model.resize(first, 0);
        for (unsigned step = 0; step < 400; ++step) {
            const std::uint64_t size = model.size();
            const std::uint64_t addr = randomAddr(prng, size);
            const std::uint64_t maxRow = std::min(size - addr, 2 * kPage);
            const std::uint64_t n = 1 + prng.below(maxRow);
            const std::uint64_t op = prng.below(6);
            if (op == 0 && size < 12 * kPage) {
                const std::uint64_t count = prng.below(kPage + 3);
                EXPECT_EQ(mem.allocate(count), size);
                model.resize(size + count, 0);
            } else if (op == 1) {
                const std::int64_t v = randomValue(prng, edges);
                mem.write(addr, v);
                model[addr] = v;
            } else if (op == 2) {
                // Sparse rows: mostly zeros, some at class edges.
                std::vector<std::int64_t> row(n, 0);
                for (std::int64_t &v : row)
                    if (prng.below(8) == 0)
                        v = randomValue(prng, edges);
                mem.store(addr, n, row.data());
                std::copy(row.begin(), row.end(), model.begin() + addr);
            } else if (op == 3) {
                std::vector<std::int64_t> row(n, -7);
                mem.load(addr, n, row.data());
                ASSERT_EQ(row, slice(model, addr, n)) << "step " << step;
            } else if (op == 4) {
                std::vector<std::int64_t> row(n);
                for (std::int64_t &v : row)
                    v = randomValue(prng, edges);
                std::copy(row.begin(), row.end(), mem.writeSpan(addr, n));
                std::copy(row.begin(), row.end(), model.begin() + addr);
            } else if (op == 5) {
                // A write to a copy leaves the original alone.
                MemoryModel copy = mem;
                std::vector<std::int64_t> copyModel = model;
                const std::int64_t v = randomValue(prng, edges) ^ 0x5a5a;
                copy.write(addr, v);
                copyModel[addr] = v;
                expectSame(copy, copyModel);
                expectSame(mem, model);
            }
        }
        expectSame(mem, model);
    }
}

TEST(Memory, EveryClassEdgeRoundTrips)
{
    for (std::int64_t v : edgeValues()) {
        MemoryModel mem;
        mem.allocate(2 * kPage);
        mem.write(kPage - 1, v);
        EXPECT_EQ(mem.read(kPage - 1), v);
        // The same value inside a row that straddles the page edge.
        const std::int64_t row[3] = {1, v, -1};
        mem.store(kPage - 2, 3, row);
        std::int64_t back[3] = {};
        mem.load(kPage - 2, 3, back);
        EXPECT_EQ(back[0], 1);
        EXPECT_EQ(back[1], v);
        EXPECT_EQ(back[2], -1);
    }
}

TEST(Memory, PromotionMidRowKeepsTheOtherWords)
{
    MemoryModel mem;
    mem.allocate(kPage);
    std::vector<std::int64_t> model(kPage);
    for (std::uint64_t a = 0; a < kPage; ++a)
        model[a] = static_cast<std::int64_t>(a % 251) - 125;
    mem.store(0, kPage, model.data());
    EXPECT_EQ(mem.residentBytes(), kPage);

    // One wide value in the middle of a narrow row widens the page.
    std::vector<std::int64_t> row = {3, -3, std::int64_t{1} << 31, 4};
    mem.store(1000, row.size(), row.data());
    std::copy(row.begin(), row.end(), model.begin() + 1000);
    EXPECT_EQ(mem.residentBytes(), 8 * kPage);
    expectSame(mem, model);
}

TEST(Memory, ZerosLeaveUnmappedPagesUnmapped)
{
    MemoryModel mem;
    mem.allocate(4 * kPage);
    const std::vector<std::int64_t> zeros(3 * kPage, 0);
    mem.store(kPage / 2, zeros.size(), zeros.data());
    mem.write(3 * kPage, 0);
    std::copy(zeros.begin(), zeros.end(), mem.writeSpan(0, zeros.size()));
    EXPECT_EQ(mem.residentBytes(), 0u);
    EXPECT_EQ(mem.read(4 * kPage - 1), 0);
}

TEST(Memory, ResidencyFollowsTheValues)
{
    MemoryModel mem;
    mem.allocate(std::size_t{1} << 24);
    EXPECT_EQ(mem.residentBytes(), 0u);

    // 0/1 words, as the benchmark seeds them: one byte per word.
    const std::uint64_t n = 1000 * kPage + 17;
    Prng prng(5);
    std::vector<std::uint8_t> bits(n);
    for (std::uint8_t &b : bits)
        b = static_cast<std::uint8_t>(prng.below(2));
    std::copy(bits.begin(), bits.end(), mem.writeSpan(0, n));
    const std::size_t loaded = mem.residentBytes();
    EXPECT_EQ(loaded, 1001 * kPage);
    for (std::uint64_t a = 0; a < n; a += 4093)
        ASSERT_EQ(mem.read(a), bits[a]);

    // One wide write promotes exactly one page from int8 to int64.
    mem.write(5 * kPage + 9, std::int64_t{1} << 40);
    EXPECT_EQ(mem.residentBytes(), loaded + 7 * kPage);
}

TEST(Memory, CopiesAreDeepAndMovesKeepTheWords)
{
    MemoryModel mem;
    mem.allocate(2 * kPage);
    mem.write(7, 42);
    MemoryModel copy = mem;
    copy.write(7, 1 << 20);
    copy.write(kPage + 1, -5);
    EXPECT_EQ(mem.read(7), 42);
    EXPECT_EQ(mem.read(kPage + 1), 0);
    EXPECT_EQ(mem.residentBytes(), kPage);

    MemoryModel moved = std::move(copy);
    EXPECT_EQ(moved.read(7), 1 << 20);
    EXPECT_EQ(moved.read(kPage + 1), -5);
}

TEST(Memory, SpanWriterSurvivesAPromotionBehindIt)
{
    MemoryModel mem;
    mem.allocate(kPage);
    MemoryModel::SpanWriter out = mem.writeSpan(0, 3);
    *out = 1;
    ++out;
    // Widens the page the writer is filling.
    mem.write(3, std::int64_t{1} << 40);
    *out = 2;
    ++out;
    *out = -3;
    EXPECT_EQ(mem.read(0), 1);
    EXPECT_EQ(mem.read(1), 2);
    EXPECT_EQ(mem.read(2), -3);
    EXPECT_EQ(mem.read(3), std::int64_t{1} << 40);
}

TEST(MemoryDeath, SpanBoundsDoNotWrap)
{
    MemoryModel mem;
    mem.allocate(16);
    const std::uint64_t addr = std::numeric_limits<std::uint64_t>::max() - 1;
    std::int64_t row[4] = {};
    EXPECT_DEATH(mem.load(addr, 4, row), "memory load out of range");
    EXPECT_DEATH(mem.store(addr, 4, row), "memory store out of range");
    EXPECT_DEATH(mem.writeSpan(addr, 4), "memory write span out of range");
    EXPECT_DEATH(mem.load(13, 4, row), "memory load out of range");
    EXPECT_DEATH(mem.store(0, 17, row), "memory store out of range");
}

TEST(MemoryDeath, SpanWriterStopsAtItsEnd)
{
    MemoryModel mem;
    mem.allocate(16);
    const std::vector<std::int64_t> row(5, 1);
    EXPECT_DEATH(std::copy(row.begin(), row.end(), mem.writeSpan(0, 4)),
                 "memory write span overrun");
}

} // namespace
} // namespace bitfusion
