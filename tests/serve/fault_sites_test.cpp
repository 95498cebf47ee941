// The serve fault-site guard (satellite of the service PR): every
// registered serve.* site must be reachable through a live service run,
// and every serve.* name in the global registry must be listed in
// serve_sites(). Registering a site without instrumenting it — or
// instrumenting one without listing it — fails here.
#include "core/fault_injection.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "serve/service.hpp"

namespace kdc::serve {
namespace {

using core::fault_plan;
using core::fault_site;
using core::fault_site_name;

service_config small_config() {
    service_config config;
    config.bins = 32;
    config.k = 2;
    config.d = 4;
    config.seed = 77;
    config.clients = 2;
    config.requests = 24;
    config.arrival_rate = 4.0;
    config.churn = 0.25;
    return config;
}

TEST(ServeFaultSites, EveryServePrefixedSiteIsListed) {
    std::vector<std::string> listed;
    for (const fault_site site : core::serve_sites()) {
        listed.emplace_back(fault_site_name(site));
    }
    std::vector<std::string> prefixed;
    for (const std::string& name : core::fault_site_names()) {
        if (name.starts_with("serve.")) {
            prefixed.push_back(name);
        }
    }
    // Same sets, same (enum) order: serve_sites() IS the serve.* registry.
    EXPECT_EQ(listed, prefixed);
    EXPECT_FALSE(listed.empty());
}

TEST(ServeFaultSites, EveryListedSiteFiresDuringALiveRun) {
    for (const fault_site site : core::serve_sites()) {
        const std::string plan =
            std::string(fault_site_name(site)) + ":io_error@1";
        core::arm_faults(fault_plan::parse(plan));
        bool fired = false;
        try {
            (void)run_service(small_config());
        } catch (const core::injected_io_error& error) {
            fired = true;
            EXPECT_EQ(error.site(), site);
        }
        core::disarm_faults();
        EXPECT_TRUE(fired) << "site " << fault_site_name(site)
                           << " is registered but never reached by "
                              "run_service — instrument it";
    }
}

TEST(ServeFaultSites, LaterHitsPassUntouched) {
    // An @hit beyond the run's site arrivals must leave the run intact —
    // the disarmed/armed-but-silent path the hot-path guard also covers.
    core::arm_faults(
        fault_plan::parse("serve.accept:io_error@1000000"));
    const service_result result = run_service(small_config());
    core::disarm_faults();
    EXPECT_EQ(result.allocations + result.releases, 24u);
}

} // namespace
} // namespace kdc::serve
