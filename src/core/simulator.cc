#include "core/simulator.hh"

#include "core/fetch_engine.hh"
#include "workload/executor.hh"
#include "workload/registry.hh"

namespace specfetch {

namespace {

/**
 * Every overload lands here: replay @p snapshot when given, else
 * record the (workload, config.runSeed) stream through a streaming
 * cursor as the run consumes it.
 */
SimResults
simulate(const Workload &workload, const SimConfig &config,
         const TraceSnapshot *snapshot, RunObservations *observations)
{
    FetchEngine engine(config, workload.image);
    SimResults results;
    if (snapshot) {
        SnapshotReplaySource source(*snapshot);
        results = engine.run(source);
    } else {
        Executor executor(workload.cfg, config.runSeed);
        SnapshotReplaySource source(executor, config.streamInstructions());
        results = engine.run(source);
    }
    if (observations)
        engine.takeObservations(*observations);
    results.workload = workload.profile.name;
    return results;
}

} // namespace

SimResults
runSimulation(const Workload &workload, const SimConfig &config)
{
    return simulate(workload, config, nullptr, nullptr);
}

SimResults
runSimulation(const Workload &workload, const SimConfig &config,
              const TraceSnapshot &snapshot)
{
    return simulate(workload, config, &snapshot, nullptr);
}

SimResults
runSimulation(const Workload &workload, const SimConfig &config,
              RunObservations &observations)
{
    return simulate(workload, config, nullptr, &observations);
}

SimResults
runSimulation(const Workload &workload, const SimConfig &config,
              const TraceSnapshot &snapshot, RunObservations &observations)
{
    return simulate(workload, config, &snapshot, &observations);
}

SimResults
runBenchmark(const std::string &benchmark, const SimConfig &config)
{
    return runSimulation(*sharedWorkload(benchmark), config);
}

} // namespace specfetch
