#include "core/runner.hpp"

#include "support/cli.hpp"

namespace kdc::core {

const char* par_mode_name(par_mode mode) noexcept {
    return mode == par_mode::round ? "round" : "rep";
}

par_mode par_mode_from_name(const std::string& name) {
    if (name == "rep") {
        return par_mode::rep;
    }
    if (name == "round") {
        return par_mode::round;
    }
    throw cli_error("par must be 'rep' or 'round', got '" + name + "'");
}

const char* metric_name(metric_kind metric) noexcept {
    switch (metric) {
    case metric_kind::gap:
        return "gap";
    case metric_kind::messages:
        return "messages";
    case metric_kind::max_load:
        break;
    }
    return "max_load";
}

metric_kind metric_from_name(const std::string& name) {
    if (name == "max_load") {
        return metric_kind::max_load;
    }
    if (name == "gap") {
        return metric_kind::gap;
    }
    if (name == "messages") {
        return metric_kind::messages;
    }
    throw cli_error("metric must be one of 'max_load', 'gap' or 'messages', "
                    "got '" +
                    name + "'");
}

std::uint64_t whole_rounds_balls(std::uint64_t n, std::uint64_t k) {
    KD_EXPECTS_MSG(k >= 1, "k must be positive");
    KD_EXPECTS_MSG(n >= k,
                   "need n >= k bins: not even one round of k balls fits");
    return n - (n % k);
}

} // namespace kdc::core
