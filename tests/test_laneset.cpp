/**
 * @file
 * Lane-set helpers (simt/laneset.hpp) checked against a byte-per-lane
 * reference on random masks -- empty and full ones included -- for the
 * warp widths 1, 8, 32 and 64; and the Sm's refusal of lane counts a
 * 64-bit lane set cannot hold.
 */

#include <gtest/gtest.h>

#include <vector>

#include "simt/laneset.hpp"
#include "simt/sm.hpp"
#include "support/rng.hpp"

namespace
{

using namespace simt;

/** One byte per lane, nonzero = set. */
using Bytes = std::vector<uint8_t>;

LaneSet
fromBytes(const Bytes &b)
{
    LaneSet s = 0;
    for (unsigned lane = 0; lane < b.size(); ++lane) {
        if (b[lane])
            s |= LaneSet{1} << lane;
    }
    return s;
}

/** Random mask whose density varies per draw; every fifth mask is empty
 *  and every fifth full. */
Bytes
randomBytes(support::Rng &r, unsigned lanes, int i)
{
    Bytes b(lanes);
    const unsigned density = i % 5 == 0 ? 0 : i % 5 == 1 ? 100
                                                         : r.nextBounded(101);
    for (uint8_t &v : b)
        v = r.nextBounded(100) < density ? 1 : 0;
    return b;
}

class LaneSetProperty : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(LaneSetProperty, MatchesBytePerLaneReference)
{
    const unsigned n = GetParam();
    support::Rng r(1000 + n);
    const LaneSet all = allLanes(n);
    EXPECT_EQ(laneCount(all), n);
    for (int i = 0; i < 500; ++i) {
        const Bytes b = randomBytes(r, n, i);
        const LaneSet s = fromBytes(b);
        ASSERT_EQ(s & ~all, 0u) << "bits beyond the warp";

        unsigned count = 0;
        std::vector<unsigned> lanes;
        bool all_set = true;
        for (unsigned lane = 0; lane < n; ++lane) {
            EXPECT_EQ(hasLane(s, lane), b[lane] != 0);
            count += b[lane] ? 1 : 0;
            all_set = all_set && b[lane];
            if (b[lane])
                lanes.push_back(lane);
        }
        EXPECT_EQ(laneCount(s), count);
        EXPECT_EQ(allLive(s, n), all_set);
        EXPECT_EQ(firstLane(s), lanes.empty() ? kNoLane : lanes.front());
        if (!lanes.empty()) {
            EXPECT_EQ(lastLane(s), lanes.back());
        }

        // Next set lane after every lane.
        for (unsigned lane = 0; lane < n; ++lane) {
            unsigned want = kNoLane;
            for (unsigned l = lane + 1; l < n; ++l) {
                if (b[l]) {
                    want = l;
                    break;
                }
            }
            EXPECT_EQ(nextLane(s, lane), want) << "after lane " << lane;
        }

        // Set-bit iteration visits exactly the set lanes, in order.
        std::vector<unsigned> seen;
        for (const unsigned lane : lanesOf(s))
            seen.push_back(lane);
        EXPECT_EQ(seen, lanes);

        // Masked merge: lanes of the mask from `in`, the rest from `base`.
        const Bytes in = randomBytes(r, n, i + 2);
        const Bytes mask = randomBytes(r, n, i + 3);
        Bytes merged(n);
        for (unsigned lane = 0; lane < n; ++lane)
            merged[lane] = mask[lane] ? in[lane] : b[lane];
        EXPECT_EQ(mergeLanes(s, fromBytes(in), fromBytes(mask)),
                  fromBytes(merged));
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, LaneSetProperty,
                         ::testing::Values(1u, 8u, 32u, 64u));

TEST(LaneSetDeath, ZeroLanesIsFatal)
{
    SmConfig cfg;
    cfg.numLanes = 0;
    EXPECT_EXIT({ Sm sm(cfg); }, testing::ExitedWithCode(1), "numLanes");
}

TEST(LaneSetDeath, SixtyFiveLanesIsFatal)
{
    SmConfig cfg;
    cfg.numLanes = 65;
    cfg.stackCacheLines = 0;
    EXPECT_EXIT({ Sm sm(cfg); }, testing::ExitedWithCode(1), "numLanes");
}

TEST(LaneSet, SixtyFourLanesIsAccepted)
{
    SmConfig cfg;
    cfg.numWarps = 4;
    cfg.numLanes = 64;
    cfg.stackCacheLines = 0;
    Sm sm(cfg);
    EXPECT_EQ(sm.config().numLanes, 64u);
}

} // namespace
