/**
 * @file
 * Tests for the util/thread_pool worker pool and parallelFor helper.
 */

#include <gtest/gtest.h>
#include <sched.h>

#include <atomic>
#include <cstddef>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "util/thread_pool.hh"

namespace omega {
namespace {

TEST(ThreadPool, RunsAllSubmittedTasks)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.numThreads(), 4u);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&count] { count.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIsReusable)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    pool.submit([&count] { count.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(count.load(), 1);
    pool.submit([&count] { count.fetch_add(1); });
    pool.submit([&count] { count.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPool, DestructorDrainsPendingWork)
{
    std::atomic<int> count{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 32; ++i)
            pool.submit([&count] { count.fetch_add(1); });
    }
    EXPECT_EQ(count.load(), 32);
}

TEST(ThreadPool, HardwareJobsFollowsTheAffinityMask)
{
    cpu_set_t saved;
    ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
    EXPECT_EQ(ThreadPool::hardwareJobs(),
              static_cast<unsigned>(CPU_COUNT(&saved)));
    int first = 0;
    while (!CPU_ISSET(first, &saved))
        ++first;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(first, &one);
    ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
    const unsigned restricted = ThreadPool::hardwareJobs();
    ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
    EXPECT_EQ(restricted, 1u);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    for (unsigned jobs : {1u, 2u, 7u}) {
        std::vector<int> hits(1000, 0);
        parallelFor(hits.size(), jobs,
                    [&hits](std::size_t i) { hits[i] += 1; });
        EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 1000)
            << "jobs=" << jobs;
        for (int h : hits)
            EXPECT_EQ(h, 1);
    }
}

TEST(ParallelFor, SequentialWhenSingleJob)
{
    // jobs <= 1 must run inline on the calling thread, in order.
    const auto self = std::this_thread::get_id();
    std::vector<std::size_t> order;
    parallelFor(10, 1, [&](std::size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), self);
        order.push_back(i);
    });
    ASSERT_EQ(order.size(), 10u);
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(ParallelFor, ZeroIterationsIsANoop)
{
    int calls = 0;
    parallelFor(0, 4, [&calls](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, PropagatesFirstException)
{
    EXPECT_THROW(parallelFor(100, 4,
                             [](std::size_t i) {
                                 if (i == 42)
                                     throw std::runtime_error("boom");
                             }),
                 std::runtime_error);
}

TEST(ParallelFor, HardwareJobsIsAtLeastOne)
{
    EXPECT_GE(ThreadPool::hardwareJobs(), 1u);
}

} // namespace
} // namespace omega
