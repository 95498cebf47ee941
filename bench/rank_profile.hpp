// Shared emission of a sorted-load rank profile: fig1_sorted_load and
// fig2_lowerbound_landmarks both print "rank x | B_x (mean) | note" rows
// (and the same rows as --csv); declaring the columns once here keeps the
// two figures' output formats from diverging.
#pragma once

#include <cstdint>
#include <string>

#include "core/scenario.hpp"
#include "support/cli.hpp"
#include "support/row_emitter.hpp"

namespace kdc_bench {

/// Rejects, with a cli_error, a scenario whose family does not read k and d
/// with k < d, as the figures' (k,d) bounds require.
inline void require_kd_reading(const kdc::core::scenario& sc) {
    if (!kdc::core::scenario_reads_key(sc, "k") || sc.k >= sc.d) {
        throw kdc::cli_error(
            "this figure prints (k,d)-choice theory and needs a family that "
            "reads k and d with k < d (kd, greedy, weighted), got '" +
            kdc::core::to_string(sc) + "'");
    }
}

/// One rank of the measured profile: B_rank averaged over repetitions,
/// plus an optional landmark annotation ("<- beta0 = n/(6 dk)", ...).
struct rank_row {
    std::uint64_t rank = 0;
    double mean = 0.0;
    std::string note;
};

/// The canonical three-column rank-profile emitter.
[[nodiscard]] inline kdc::row_emitter<rank_row> make_rank_profile_emitter() {
    kdc::row_emitter<rank_row> emitter;
    emitter
        .add_column("rank x",
                    [](const rank_row& row, std::size_t) {
                        return std::to_string(row.rank);
                    })
        .add_stat_column("B_x (mean)",
                         [](const rank_row& row) { return row.mean; })
        .add_column("note",
                    [](const rank_row& row, std::size_t) { return row.note; },
                    kdc::table_align::left);
    return emitter;
}

} // namespace kdc_bench
