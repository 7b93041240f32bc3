// The benchmark's own tests (servebench_driver --self-test).
#ifndef SERVEBENCH_SELFTEST_H_
#define SERVEBENCH_SELFTEST_H_

namespace servebench {

/// Runs every self-test; returns 0 when all pass.
int RunSelfTests();

}  // namespace servebench

#endif  // SERVEBENCH_SELFTEST_H_
