/**
 * @file
 * Runs cache tests under both CacheArray row scans: the CPU's choice
 * (the AVX2 scan for 8-way arrays on an AVX2 host) and the scalar scan
 * forced. A host without AVX2 runs the scalar scan twice.
 */

#ifndef OMEGA_TESTS_TAG_SCAN_HH
#define OMEGA_TESTS_TAG_SCAN_HH

#include <gtest/gtest.h>

#include <string>

#include "sim/cache.hh"

namespace omega {

/**
 * A value-parameterized fixture whose parameter forces the scalar row
 * scan (true) or keeps the CPU's (false) for every CacheArray the test
 * builds.
 */
class EveryTagScan : public ::testing::TestWithParam<bool>
{
  protected:
    EveryTagScan() { forceScalarTagScan(GetParam()); }
    ~EveryTagScan() override { forceScalarTagScan(false); }
};

/** The test-name suffix of a row-scan parameter. */
inline std::string
tagScanName(bool scalar)
{
    return scalar ? "scalar" : "cpu";
}

} // namespace omega

#endif // OMEGA_TESTS_TAG_SCAN_HH
