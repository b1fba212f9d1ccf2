/**
 * @file
 * Self-test of the benchmark's arithmetic and output check.
 */

#ifndef SPECBENCH_SELFTEST_HH_
#define SPECBENCH_SELFTEST_HH_

namespace specbench {

/** Run every self-test case; failures are named on stderr. */
bool runSelfTest();

} // namespace specbench

#endif // SPECBENCH_SELFTEST_HH_
