#include "core/sweep.hpp"

namespace kdc::core {

std::vector<sweep_outcome> run_sweep(thread_pool& pool,
                                     const std::vector<sweep_cell>& cells,
                                     const sweep_options& options) {
    std::vector<std::uint32_t> reps_per_cell;
    reps_per_cell.reserve(cells.size());
    for (const auto& cell : cells) {
        KD_EXPECTS_MSG(cell.run_rep != nullptr,
                       "sweep cell has no repetition runner");
        KD_EXPECTS(cell.config.reps >= 1);
        KD_EXPECTS(cell.config.balls >= 1);
        reps_per_cell.push_back(cell.config.reps);
    }

    auto grid = run_engine_grid<repetition_result>(
        pool, reps_per_cell,
        [&cells](std::size_t cell, std::uint32_t rep) {
            return cells[cell].run_rep(
                rng::derive_seed(cells[cell].config.seed, rep));
        },
        // The confidence_width rule monitors each cell's chosen metric
        // (max load by default — the statistic the paper's tables report).
        [&cells](std::size_t cell, const repetition_result& rep) {
            return monitored_value(cells[cell].metric, rep);
        },
        options.stopping, options.progress);

    std::vector<sweep_outcome> outcomes;
    outcomes.reserve(cells.size());
    for (std::size_t c = 0; c < cells.size(); ++c) {
        sweep_outcome outcome;
        outcome.name = cells[c].name;
        outcome.config = cells[c].config;
        outcome.result.reps = std::move(grid[c]);
        for (const auto& r : outcome.result.reps) {
            accumulate_repetition(outcome.result, r);
        }
        outcomes.push_back(std::move(outcome));
    }
    return outcomes;
}

std::vector<sweep_outcome> run_sweep(const std::vector<sweep_cell>& cells,
                                     const sweep_options& options) {
    if (cells.empty()) {
        return {};
    }
    return run_sweep(persistent_pool(options.threads), cells, options);
}

sweep_emitter& sweep_emitter::add_name_column(std::string header) {
    return add_column(
        std::move(header),
        [](const sweep_outcome& outcome, std::size_t) {
            return outcome.name;
        },
        table_align::left);
}

sweep_emitter& sweep_emitter::add_max_load_set_column(std::string header) {
    return add_column(std::move(header),
                      [](const sweep_outcome& outcome, std::size_t) {
                          return outcome.result.max_load_set();
                      });
}

sweep_emitter& sweep_emitter::add_reps_column(std::string header) {
    return add_column(std::move(header),
                      [](const sweep_outcome& outcome, std::size_t) {
                          return std::to_string(outcome.result.reps.size());
                      });
}

} // namespace kdc::core
