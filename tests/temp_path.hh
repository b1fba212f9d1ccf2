/**
 * @file
 * Per-test scratch paths. ctest runs every discovered test in its own
 * process, and `ctest -j` runs them side by side, so two tests that
 * share one fixed file name under testing::TempDir() race on it. A
 * path keyed by the running test's suite and name cannot collide with
 * another test's, and stays stable across reruns of the same test, so
 * a test can wipe what an earlier run of itself left behind.
 */

#ifndef SPECFETCH_TESTS_TEMP_PATH_HH_
#define SPECFETCH_TESTS_TEMP_PATH_HH_

#include <gtest/gtest.h>

#include <string>

namespace specfetch {

/**
 * testing::TempDir() + "<Suite>.<Test>." + @p leaf for the test that
 * is running. Parameterized names ("Inst/Suite.Test/3") have their
 * '/' replaced so the result is one file name.
 */
inline std::string
uniqueTempPath(const std::string &leaf)
{
    const ::testing::TestInfo *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string key = info ? std::string(info->test_suite_name()) + "." +
                                 info->name()
                           : std::string("no_test");
    for (char &c : key) {
        if (c == '/')
            c = '_';
    }
    return ::testing::TempDir() + key + "." + leaf;
}

} // namespace specfetch

#endif // SPECFETCH_TESTS_TEMP_PATH_HH_
