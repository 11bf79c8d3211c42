#include "simt/mem.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstring>

#include <sys/mman.h>

#include "support/logging.hpp"

namespace simt
{

namespace
{

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

/** kFnvPrime^n mod 2^64: the FNV-1a step of n zero inputs. */
constexpr uint64_t
fnvPrimePow(uint64_t n)
{
    uint64_t result = 1;
    uint64_t base = kFnvPrime;
    for (; n != 0; n >>= 1) {
        if (n & 1)
            result *= base;
        base *= base;
    }
    return result;
}

} // namespace

MainMemory::MainMemory()
{
    void *map = mmap(nullptr, kMapBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    fatal_if(map == MAP_FAILED, "cannot map %zu bytes of simulated DRAM",
             kMapBytes);
    data_ = static_cast<uint8_t *>(map);
    tags_ = reinterpret_cast<uint64_t *>(data_ + kDramSize);
}

MainMemory::~MainMemory()
{
    munmap(data_, kMapBytes);
}

MainMemory::MainMemory(const MainMemory &other) : MainMemory()
{
    *this = other;
}

MainMemory &
MainMemory::operator=(const MainMemory &other)
{
    if (this == &other)
        return *this;
    // Pages written in neither memory are zero in both.
    for (size_t w = 0; w < kWrittenWords; ++w) {
        for (uint64_t bits = written_[w] | other.written_[w]; bits != 0;
             bits &= bits - 1) {
            const size_t page = w * 64 + std::countr_zero(bits);
            if (other.isWritten(page))
                copyPage(other, page);
            else
                zeroPage(page);
        }
    }
    written_ = other.written_;
    return *this;
}

void
MainMemory::markByteRange(size_t first, size_t last)
{
    for (size_t page = first / kPageBytes; page <= last / kPageBytes;
         ++page)
        markWritten(page);
}

void
MainMemory::zeroPage(size_t page)
{
    std::memset(data_ + page * kPageBytes, 0, kPageBytes);
    std::memset(tags_ + page * kPageTagWords, 0, kPageTagWords * 8);
}

void
MainMemory::copyPage(const MainMemory &other, size_t page)
{
    std::memcpy(data_ + page * kPageBytes,
                other.data_ + page * kPageBytes, kPageBytes);
    std::memcpy(tags_ + page * kPageTagWords,
                other.tags_ + page * kPageTagWords, kPageTagWords * 8);
}

size_t
MainMemory::index(uint32_t addr) const
{
    panic_if(!contains(addr), "DRAM address 0x%08x out of range", addr);
    return addr - kDramBase;
}

uint8_t
MainMemory::load8(uint32_t addr) const
{
    return data_[index(addr)];
}

uint16_t
MainMemory::load16(uint32_t addr) const
{
    const size_t i = index(addr);
    return static_cast<uint16_t>(data_[i] | (data_[i + 1] << 8));
}

uint32_t
MainMemory::load32(uint32_t addr) const
{
    const size_t i = index(addr);
    return static_cast<uint32_t>(data_[i]) |
           (static_cast<uint32_t>(data_[i + 1]) << 8) |
           (static_cast<uint32_t>(data_[i + 2]) << 16) |
           (static_cast<uint32_t>(data_[i + 3]) << 24);
}

void
MainMemory::store8(uint32_t addr, uint8_t value)
{
    const size_t i = index(addr);
    data_[i] = value;
    markWritten(i / kPageBytes);
}

void
MainMemory::store16(uint32_t addr, uint16_t value)
{
    uint8_t *p = writableSpan(addr, 2);
    p[0] = static_cast<uint8_t>(value);
    p[1] = static_cast<uint8_t>(value >> 8);
}

void
MainMemory::store32(uint32_t addr, uint32_t value)
{
    uint8_t *p = writableSpan(addr, 4);
    p[0] = static_cast<uint8_t>(value);
    p[1] = static_cast<uint8_t>(value >> 8);
    p[2] = static_cast<uint8_t>(value >> 16);
    p[3] = static_cast<uint8_t>(value >> 24);
}

bool
MainMemory::wordTag(uint32_t addr) const
{
    const size_t w = index(addr) / 4;
    return (tags_[w / 64] >> (w % 64)) & 1;
}

void
MainMemory::setWordTag(uint32_t addr, bool tag)
{
    const size_t i = index(addr);
    const size_t w = i / 4;
    const uint64_t bit = uint64_t{1} << (w % 64);
    if (tag) {
        tags_[w / 64] |= bit;
        markWritten(i / kPageBytes);
    } else {
        tags_[w / 64] &= ~bit;
    }
}

cap::CapMem
MainMemory::loadCap(uint32_t addr) const
{
    panic_if(addr % 8 != 0, "misaligned capability load at 0x%08x", addr);
    cap::CapMem c;
    c.bits = static_cast<uint64_t>(load32(addr)) |
             (static_cast<uint64_t>(load32(addr + 4)) << 32);
    // The invariant of Section 3.4: a capability is valid only if the tag
    // bits of both its 32-bit halves are set.
    c.tag = wordTag(addr) && wordTag(addr + 4);
    return c;
}

void
MainMemory::storeCap(uint32_t addr, const cap::CapMem &value)
{
    panic_if(addr % 8 != 0, "misaligned capability store at 0x%08x", addr);
    store32(addr, static_cast<uint32_t>(value.bits));
    store32(addr + 4, static_cast<uint32_t>(value.bits >> 32));
    setWordTag(addr, value.tag);
    setWordTag(addr + 4, value.tag);
}

void
MainMemory::clearTagForStore(uint32_t addr, unsigned bytes)
{
    const uint32_t first = addr & ~3u;
    const uint32_t last = (addr + bytes - 1) & ~3u;
    for (uint32_t a = first; a <= last; a += 4)
        setWordTag(a, false);
}

const uint8_t *
MainMemory::rawData(uint32_t addr) const
{
    return data_ + index(addr);
}

uint8_t *
MainMemory::writableSpan(uint32_t addr, uint32_t bytes)
{
    panic_if(bytes == 0, "zero-length DRAM span");
    const size_t first = index(addr);
    const size_t last = index(addr + bytes - 1);
    panic_if(last < first, "DRAM span at 0x%08x wraps", addr);
    markByteRange(first, last);
    return data_ + first;
}

void
MainMemory::clearTagsInRange(uint32_t addr, uint32_t bytes)
{
    const size_t first_byte = index(addr);
    const size_t last_byte = index(addr + bytes - 1);
    markByteRange(first_byte, last_byte);
    const size_t first = first_byte / 4;
    const size_t last = last_byte / 4;
    for (size_t w = first / 64; w <= last / 64; ++w) {
        uint64_t mask = ~uint64_t{0};
        if (w == first / 64)
            mask &= ~uint64_t{0} << (first % 64);
        if (w == last / 64 && last % 64 != 63)
            mask &= (uint64_t{1} << (last % 64 + 1)) - 1;
        tags_[w] &= ~mask;
    }
}

void
MainMemory::copyOut(uint32_t addr, uint8_t *out, uint32_t bytes) const
{
    panic_if(bytes == 0, "zero-length copy");
    const size_t i = index(addr);
    panic_if(i + bytes > kDramSize, "copy past the end of DRAM");
    std::memcpy(out, data_ + i, bytes);
}

size_t
MainMemory::writtenPages() const
{
    size_t n = 0;
    for (const uint64_t w : written_)
        n += static_cast<size_t>(std::popcount(w));
    return n;
}

uint64_t
MainMemory::contentHash() const
{
    // FNV-1a over the data bytes (as little-endian 64-bit chunks) and
    // then the indices of the set word tags. A clean page is 512 zero
    // chunks, and h = (h ^ 0) * p, so it folds into one multiply; tags
    // are set only on written pages.
    constexpr uint64_t kCleanPage = fnvPrimePow(kPageBytes / 8);
    uint64_t h = kFnvOffset;
    for (size_t page = 0; page < kNumPages; ++page) {
        if (!isWritten(page)) {
            h *= kCleanPage;
            continue;
        }
        const uint8_t *p = data_ + page * kPageBytes;
        for (size_t i = 0; i < kPageBytes; i += 8) {
            uint64_t chunk = 0;
            for (unsigned b = 0; b < 8; ++b)
                chunk |= static_cast<uint64_t>(p[i + b]) << (8 * b);
            h = (h ^ chunk) * kFnvPrime;
        }
    }
    for (size_t page = 0; page < kNumPages; ++page) {
        if (!isWritten(page))
            continue;
        for (size_t g = page * kPageTagWords;
             g < (page + 1) * kPageTagWords; ++g) {
            for (uint64_t bits = tags_[g]; bits != 0; bits &= bits - 1) {
                const uint64_t word = g * 64 + std::countr_zero(bits);
                h = (h ^ (word + 1)) * kFnvPrime;
            }
        }
    }
    return h;
}

uint64_t
MainMemory::dataHash(uint32_t addr, uint32_t bytes, uint32_t exclude_addr,
                     uint32_t exclude_bytes) const
{
    // Byte-wise FNV-1a over the in-DRAM addresses of [addr, addr+bytes)
    // outside the exclusion window. Walked as spans that stop at page
    // boundaries and at the window's edges; a clean span of n zero
    // bytes folds into one multiply by p^n. Both range ends are 32-bit
    // sums, exactly as in a per-address loop bounded by them.
    constexpr uint32_t kDramEnd = kDramBase + kDramSize;
    const uint32_t end = addr + bytes;
    const uint32_t ex_end = exclude_addr + exclude_bytes;
    const bool has_ex = exclude_bytes != 0 && ex_end > exclude_addr;
    uint64_t h = kFnvOffset;
    uint32_t a = addr;
    while (a < end) {
        if (has_ex && a >= exclude_addr && a < ex_end) {
            a = std::min(end, ex_end);
            continue;
        }
        if (a < kDramBase) {
            a = std::min(end, kDramBase);
            continue;
        }
        if (a >= kDramEnd)
            break;
        const size_t i = a - kDramBase;
        uint32_t stop = std::min(end, kDramEnd);
        stop = std::min(stop, static_cast<uint32_t>(
                                  a + (kPageBytes - i % kPageBytes)));
        if (has_ex && exclude_addr > a)
            stop = std::min(stop, exclude_addr);
        const uint32_t n = stop - a;
        if (!isWritten(i / kPageBytes)) {
            h *= fnvPrimePow(n);
        } else {
            for (const uint8_t *p = data_ + i; p != data_ + i + n; ++p)
                h = (h ^ *p) * kFnvPrime;
        }
        a = stop;
    }
    return h;
}

std::vector<MemTransaction>
Coalescer::coalesce(const std::vector<uint32_t> &addrs, LaneSet active,
                    unsigned access_bytes) const
{
    std::vector<MemTransaction> txns;
    const LaneSet lanes =
        active & allLanes(static_cast<unsigned>(addrs.size()));
    for (const unsigned lane : lanesOf(lanes)) {
        // An access may straddle a segment boundary; cover both segments.
        const uint32_t first = addrs[lane] & ~(segmentBytes_ - 1);
        const uint32_t last =
            (addrs[lane] + access_bytes - 1) & ~(segmentBytes_ - 1);
        for (uint32_t seg = first;; seg += segmentBytes_) {
            bool found = false;
            for (const auto &t : txns) {
                if (t.segment == seg) {
                    found = true;
                    break;
                }
            }
            if (!found)
                txns.push_back(MemTransaction{seg, segmentBytes_});
            if (seg == last)
                break;
        }
    }
    std::sort(txns.begin(), txns.end(),
              [](const MemTransaction &a, const MemTransaction &b) {
                  return a.segment < b.segment;
              });
    return txns;
}

StackCache::StackCache(unsigned entries, unsigned fill_bytes,
                       DramTimer &dram, support::StatSet &stats)
    : fillBytes_(fill_bytes), dram_(dram), stats_(stats),
      statHits_(stats.handle("stack_cache_hits")),
      statMisses_(stats.handle("stack_cache_misses")),
      statBytesWritten_(stats.handle("stack_dram_bytes_written")),
      statBytesRead_(stats.handle("stack_dram_bytes_read")),
      lines_(entries)
{
}

void
StackCache::reset()
{
    std::fill(lines_.begin(), lines_.end(), Line{});
}

uint64_t
StackCache::access(uint64_t now, uint32_t key, bool is_write)
{
    panic_if(lines_.empty(), "access to a disabled stack cache");
    Line &line = lines_[key % lines_.size()];

    uint64_t done = now + 1;
    if (line.valid && line.key == key) {
        statHits_.add();
    } else {
        statMisses_.add();
        if (line.valid && line.dirty) {
            done = dram_.access(done, fillBytes_);
            statBytesWritten_.add(fillBytes_);
        }
        done = dram_.access(done, fillBytes_);
        statBytesRead_.add(fillBytes_);
        line.valid = true;
        line.dirty = false;
        line.key = key;
    }
    if (is_write)
        line.dirty = true;
    return done;
}

TagController::TagController(const SmConfig &cfg, DramTimer &dram,
                             support::StatSet &stats)
    : cfg_(cfg), dram_(dram), stats_(stats),
      statRootFiltered_(stats.handle("tag_root_filtered")),
      statHits_(stats.handle("tag_cache_hits")),
      statMisses_(stats.handle("tag_cache_misses")),
      statBytesWritten_(stats.handle("tag_dram_bytes_written")),
      statBytesRead_(stats.handle("tag_dram_bytes_read")),
      lines_(cfg.tagCacheLines),
      regionHasCaps_(kDramSize / kRegionBytes, false)
{
}

void
TagController::reset()
{
    std::fill(lines_.begin(), lines_.end(), Line{});
    std::fill(regionHasCaps_.begin(), regionHasCaps_.end(), false);
}

uint64_t
TagController::access(uint64_t now, uint32_t addr, bool is_write,
                      bool writes_cap)
{
    if (!cfg_.taggedMem)
        return now;

    const uint32_t offset = addr - kDramBase;
    const uint32_t region = offset / kRegionBytes;

    // Root-table filter: regions that have never held a capability need no
    // tag traffic at all -- reads return all-zero tags, and non-capability
    // writes leave the (already zero) tags unchanged.
    if (cfg_.tagRootFilter && !regionHasCaps_[region]) {
        if (!writes_cap) {
            statRootFiltered_.add();
            return now;
        }
        regionHasCaps_[region] = true;
    }

    const uint32_t tag_line_addr = offset / lineCoverage();
    const uint32_t set = tag_line_addr % cfg_.tagCacheLines;
    Line &line = lines_[set];

    uint64_t done = now;
    if (line.valid && line.tagAddr == tag_line_addr) {
        statHits_.add();
    } else {
        statMisses_.add();
        if (line.valid && line.dirty) {
            // Write back the victim tag line.
            done = dram_.access(done, cfg_.tagCacheLineBytes);
            statBytesWritten_.add(cfg_.tagCacheLineBytes);
        }
        done = dram_.access(done, cfg_.tagCacheLineBytes);
        statBytesRead_.add(cfg_.tagCacheLineBytes);
        line.valid = true;
        line.dirty = false;
        line.tagAddr = tag_line_addr;
    }
    if (is_write)
        line.dirty = true;
    return done;
}

} // namespace simt
