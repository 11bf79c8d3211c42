/**
 * @file
 * Lane sets: a warp's per-lane booleans (active lanes, halted threads,
 * register-file tag planes) as one machine word, bit i = lane i.
 * Selection, "is every live lane active" and set-bit iteration are
 * then single-register operations, as in the hardware's thread mask.
 *
 * A warp has at most kMaxLanes lanes (Sm construction refuses more);
 * bits at and above a warp's lane count are always clear.
 */

#ifndef CHERI_SIMT_SIMT_LANESET_HPP_
#define CHERI_SIMT_SIMT_LANESET_HPP_

#include <bit>
#include <cstdint>

namespace simt
{

/** Per-lane boolean set, bit i = lane i. */
using LaneSet = uint64_t;

/** Widest warp a LaneSet covers. */
constexpr unsigned kMaxLanes = 64;

/** "No further lane" result of nextLane(). */
constexpr unsigned kNoLane = kMaxLanes;

/** The set of lanes [0, num_lanes). */
constexpr LaneSet
allLanes(unsigned num_lanes)
{
    return num_lanes >= kMaxLanes ? ~LaneSet{0}
                                  : (LaneSet{1} << num_lanes) - 1;
}

/** The set holding only @p lane. */
constexpr LaneSet
laneBit(unsigned lane)
{
    return LaneSet{1} << lane;
}

constexpr bool
hasLane(LaneSet s, unsigned lane)
{
    return (s >> lane) & 1;
}

/** Number of lanes in @p s. */
constexpr unsigned
laneCount(LaneSet s)
{
    return static_cast<unsigned>(std::popcount(s));
}

/** Lowest lane of @p s; kNoLane when @p s is empty. */
constexpr unsigned
firstLane(LaneSet s)
{
    return static_cast<unsigned>(std::countr_zero(s));
}

/** Highest lane of a non-empty @p s. */
constexpr unsigned
lastLane(LaneSet s)
{
    return kMaxLanes - 1 - static_cast<unsigned>(std::countl_zero(s));
}

/** Lowest lane of @p s above @p lane; kNoLane when there is none. */
constexpr unsigned
nextLane(LaneSet s, unsigned lane)
{
    return lane + 1 >= kMaxLanes ? kNoLane
                                 : firstLane(s & (~LaneSet{0} << (lane + 1)));
}

/** Does @p s hold every lane of a @p num_lanes-wide warp? */
constexpr bool
allLive(LaneSet s, unsigned num_lanes)
{
    return s == allLanes(num_lanes);
}

/** Lanes of @p mask taken from @p in, the others from @p base. */
constexpr LaneSet
mergeLanes(LaneSet base, LaneSet in, LaneSet mask)
{
    return (base & ~mask) | (in & mask);
}

/**
 * Ascending iteration over the lanes of a set:
 * `for (unsigned lane : lanesOf(s))`. The set is copied on entry, so
 * the loop body may change the variable it came from.
 */
class LaneRange
{
  public:
    class Iter
    {
      public:
        explicit constexpr Iter(LaneSet s) : s_(s) {}
        constexpr unsigned operator*() const { return firstLane(s_); }
        constexpr Iter &
        operator++()
        {
            s_ &= s_ - 1;
            return *this;
        }
        constexpr bool operator!=(const Iter &o) const { return s_ != o.s_; }

      private:
        LaneSet s_;
    };

    explicit constexpr LaneRange(LaneSet s) : s_(s) {}
    constexpr Iter begin() const { return Iter(s_); }
    constexpr Iter end() const { return Iter(0); }

  private:
    LaneSet s_;
};

constexpr LaneRange
lanesOf(LaneSet s)
{
    return LaneRange(s);
}

} // namespace simt

#endif // CHERI_SIMT_SIMT_LANESET_HPP_
