/**
 * @file
 * Off-chip memory model used by the functional interpreter. Regions
 * are allocated per tensor; addresses in the Fusion-ISA address
 * expressions (Eq. 4) index words.
 *
 * Words live in pages of kPageWords, and each page stores its words
 * at one width class: int8, int16, int32 or int64. A page is mapped
 * at the narrowest class that holds the first nonzero value written
 * to it, and is promoted in place (its other words keep their
 * values) when a write brings a value outside its class's range;
 * pages are never demoted. A page no nonzero value was written to
 * stays unmapped and reads as zero, so allocate() touches no storage.
 * Operands thus occupy roughly the bits their values need, as in
 * Bit Fusion's bitwidth-matched off-chip layout, with no width
 * plumbing from the compiler: a page's class follows from its values.
 *
 * ld-mem / st-mem move whole rows: load() sign-extends into an int64
 * scratchpad row and store() checks each page segment's range once.
 */

#ifndef BITFUSION_ISA_MEMORY_H
#define BITFUSION_ISA_MEMORY_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <vector>

#include "src/common/logging.h"

namespace bitfusion {

/** Off-chip memory as seen by ld-mem / st-mem. */
class MemoryModel
{
    struct Page
    {
        /** kPageWords words of 1 << shift bytes; empty if unmapped. */
        std::vector<unsigned char> bytes;
        unsigned shift = 0;
    };

    /**
     * A SpanWriter's fast path: words before @p end in the int8 page
     * @p page. The writer re-checks the page's class on every word,
     * so writes made to the memory meanwhile cannot make it wrong.
     */
    struct Run
    {
        Page *page = nullptr;
        std::uint64_t end = 0;
    };

  public:
    static constexpr unsigned kPageShift = 12;
    static constexpr std::uint64_t kPageWords = std::uint64_t{1}
                                                << kPageShift;

    /**
     * Output iterator over a span of words (see writeSpan()): each
     * `*it = v` writes one word through the same width rule as
     * write(). Operand fills are mostly int8 values into int8 pages,
     * so those take a fast path that does not re-find the page.
     * Invalidated by allocate() and by moving the memory.
     */
    class SpanWriter
    {
      public:
        using iterator_category = std::output_iterator_tag;
        using value_type = void;
        using difference_type = std::ptrdiff_t;
        using pointer = void;
        using reference = void;

        SpanWriter &operator*() { return *this; }
        SpanWriter &
        operator++()
        {
            ++addr;
            return *this;
        }
        SpanWriter
        operator++(int)
        {
            SpanWriter old = *this;
            ++addr;
            return old;
        }

        SpanWriter &
        operator=(std::int64_t value)
        {
            if (addr < run.end && run.page->shift == 0 &&
                value >= INT8_MIN && value <= INT8_MAX) {
                run.page->bytes[addr & kPageMask] =
                    static_cast<unsigned char>(value);
            } else {
                BF_ASSERT(addr < end, "memory write span overrun");
                run = mem->putAndCache(addr, end, value);
            }
            return *this;
        }

      private:
        friend class MemoryModel;
        SpanWriter(MemoryModel &m, std::uint64_t a, std::uint64_t e)
            : mem(&m), addr(a), end(e)
        {
        }

        MemoryModel *mem;
        std::uint64_t addr;
        std::uint64_t end;
        Run run;
    };

    /** Allocate @p count zero elements; returns base. */
    std::uint64_t
    allocate(std::size_t count)
    {
        const std::uint64_t base = words;
        words += count;
        pages.resize((words + kPageWords - 1) >> kPageShift);
        return base;
    }

    std::int64_t
    read(std::uint64_t addr) const
    {
        BF_ASSERT(addr < words, "memory read out of range");
        const Page &pg = pages[addr >> kPageShift];
        if (pg.bytes.empty())
            return 0;
        std::int64_t v = 0;
        loadWords(pg, addr & kPageMask, 1, &v);
        return v;
    }

    void
    write(std::uint64_t addr, std::int64_t value)
    {
        BF_ASSERT(addr < words, "memory write out of range");
        put(addr, value);
    }

    /**
     * Copy @p count words at @p addr into @p dst, sign-extended.
     * One bounds check for the whole row.
     */
    void
    load(std::uint64_t addr, std::uint64_t count, std::int64_t *dst) const
    {
        BF_ASSERT(inRange(addr, count), "memory load out of range");
        while (count > 0) {
            const Page &pg = pages[addr >> kPageShift];
            const std::uint64_t off = addr & kPageMask;
            const std::uint64_t n = std::min(count, kPageWords - off);
            if (pg.bytes.empty())
                std::fill_n(dst, n, 0);
            else
                loadWords(pg, off, n, dst);
            addr += n;
            dst += n;
            count -= n;
        }
    }

    /**
     * Copy @p count words from @p src to @p addr. One bounds check
     * for the whole row and one range check per page segment, which
     * maps or promotes the page if the segment needs it.
     */
    void
    store(std::uint64_t addr, std::uint64_t count, const std::int64_t *src)
    {
        BF_ASSERT(inRange(addr, count), "memory store out of range");
        while (count > 0) {
            Page &pg = pages[addr >> kPageShift];
            const std::uint64_t off = addr & kPageMask;
            const std::uint64_t n = std::min(count, kPageWords - off);
            std::int64_t lo = 0, hi = 0;
            for (std::uint64_t i = 0; i < n; ++i) {
                lo = std::min(lo, src[i]);
                hi = std::max(hi, src[i]);
            }
            // Zeros into an unmapped page change nothing it reads.
            if (!pg.bytes.empty() || lo != 0 || hi != 0) {
                fit(pg, widthShift(lo, hi));
                storeWords(pg, off, n, src);
            }
            addr += n;
            src += n;
            count -= n;
        }
    }

    /**
     * Output iterator writing @p count words from @p addr, for bulk
     * fills such as `std::copy(v.begin(), v.end(), writeSpan(0, n))`.
     * One bounds check for the span; writing past it panics.
     */
    SpanWriter
    writeSpan(std::uint64_t addr, std::uint64_t count)
    {
        BF_ASSERT(inRange(addr, count), "memory write span out of range");
        return SpanWriter(*this, addr, addr + count);
    }

    std::size_t size() const { return words; }

    /** Bytes of word storage held by mapped pages. */
    std::size_t
    residentBytes() const
    {
        std::size_t bytes = 0;
        for (const Page &pg : pages)
            bytes += pg.bytes.size();
        return bytes;
    }

  private:
    static constexpr std::uint64_t kPageMask = kPageWords - 1;

    /** Overflow-safe `addr + count <= size()`. */
    bool
    inRange(std::uint64_t addr, std::uint64_t count) const
    {
        return count <= words && addr <= words - count;
    }

    /** log2 of the bytes per word of the narrowest class holding
     *  every value in [lo, hi]. */
    static unsigned
    widthShift(std::int64_t lo, std::int64_t hi)
    {
        if (lo >= INT8_MIN && hi <= INT8_MAX)
            return 0;
        if (lo >= INT16_MIN && hi <= INT16_MAX)
            return 1;
        if (lo >= INT32_MIN && hi <= INT32_MAX)
            return 2;
        return 3;
    }

    /** Map @p pg at @p shift, or promote it to at least @p shift. */
    static void
    fit(Page &pg, unsigned shift)
    {
        if (pg.bytes.empty()) {
            pg.bytes.assign(kPageWords << shift, 0);
            pg.shift = shift;
        } else if (shift > pg.shift) {
            promote(pg, shift);
        }
    }

    /** Re-store every word of mapped @p pg at the wider @p shift. */
    static void
    promote(Page &pg, unsigned shift)
    {
        constexpr std::uint64_t kChunk = 256;
        Page wide{std::vector<unsigned char>(kPageWords << shift), shift};
        std::int64_t chunk[kChunk];
        for (std::uint64_t off = 0; off < kPageWords; off += kChunk) {
            loadWords(pg, off, kChunk, chunk);
            storeWords(wide, off, kChunk, chunk);
        }
        pg = std::move(wide);
    }

    /**
     * put() for a SpanWriter bounded by @p end, returning its fast
     * path for the words after @p addr. Returned by value so that the
     * writer's state stays in registers, out of reach of the byte
     * stores, which may alias any memory.
     */
    Run
    putAndCache(std::uint64_t addr, std::uint64_t end, std::int64_t value)
    {
        put(addr, value);
        Page &pg = pages[addr >> kPageShift];
        if (pg.bytes.empty() || pg.shift != 0)
            return Run{};
        return Run{&pg, std::min(end, (addr | kPageMask) + 1)};
    }

    /** write() without the bounds check. */
    void
    put(std::uint64_t addr, std::int64_t value)
    {
        Page &pg = pages[addr >> kPageShift];
        if (pg.bytes.empty() && value == 0)
            return;
        fit(pg, widthShift(value, value));
        storeWords(pg, addr & kPageMask, 1, &value);
    }

    template <typename T>
    static void
    loadAs(const unsigned char *p, std::uint64_t n, std::int64_t *dst)
    {
        for (std::uint64_t i = 0; i < n; ++i) {
            T v{};
            std::memcpy(&v, p + i * sizeof(T), sizeof(T));
            dst[i] = v;
        }
    }

    template <typename T>
    static void
    storeAs(unsigned char *p, std::uint64_t n, const std::int64_t *src)
    {
        for (std::uint64_t i = 0; i < n; ++i) {
            const T v = static_cast<T>(src[i]);
            std::memcpy(p + i * sizeof(T), &v, sizeof(T));
        }
    }

    /** @p n words of mapped @p pg from word @p off, sign-extended. */
    static void
    loadWords(const Page &pg, std::uint64_t off, std::uint64_t n,
              std::int64_t *dst)
    {
        const unsigned char *p = pg.bytes.data() + (off << pg.shift);
        switch (pg.shift) {
          case 0: loadAs<std::int8_t>(p, n, dst); break;
          case 1: loadAs<std::int16_t>(p, n, dst); break;
          case 2: loadAs<std::int32_t>(p, n, dst); break;
          default: loadAs<std::int64_t>(p, n, dst); break;
        }
    }

    /** @p n words into mapped @p pg from word @p off; each value
     *  must fit the page's class. */
    static void
    storeWords(Page &pg, std::uint64_t off, std::uint64_t n,
               const std::int64_t *src)
    {
        unsigned char *p = pg.bytes.data() + (off << pg.shift);
        switch (pg.shift) {
          case 0: storeAs<std::int8_t>(p, n, src); break;
          case 1: storeAs<std::int16_t>(p, n, src); break;
          case 2: storeAs<std::int32_t>(p, n, src); break;
          default: storeAs<std::int64_t>(p, n, src); break;
        }
    }

    std::vector<Page> pages;
    std::uint64_t words = 0;
};

} // namespace bitfusion

#endif // BITFUSION_ISA_MEMORY_H
