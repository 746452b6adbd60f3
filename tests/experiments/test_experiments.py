"""Integration tests: every experiment runs at tiny scale and reproduces the paper's
qualitative findings (the 'shape' of each table/figure)."""

import numpy as np
import pytest

from repro.experiments.common import run_experiment

# Cache experiment results per module run: several tests inspect the same experiment.
_cache = {}


def result_of(name, **kwargs):
    key = (name, tuple(sorted(kwargs.items())))
    if key not in _cache:
        _cache[key] = run_experiment(name, scale="tiny", seed=0, **kwargs)
    return _cache[key]


class TestAnalysisExperiments:
    def test_fig04_low_diameter_needs_few_paths(self):
        result = result_of("fig04")
        assert len(result.rows) == 15
        for row in result.rows:
            if "Clique" in row["topology"]:
                continue
            # D>=2 topologies: fewer than ~2% of pairs see 4+ collisions
            assert row["frac_pairs_ge4"] < 0.05
        clique_worst = max(r["max_collisions"] for r in result.rows
                           if "Clique" in r["topology"])
        sf_worst = max(r["max_collisions"] for r in result.rows
                       if "Slim Fly" in r["topology"])
        assert clique_worst > sf_worst

    def test_fig06_shortest_paths_fall_short(self):
        result = result_of("fig06")
        by_name = {r["topology"]: r for r in result.rows}
        assert by_name["SF"]["frac_single_shortest"] > 0.5
        assert by_name["DF"]["frac_single_shortest"] > 0.5
        assert by_name["FT3"]["frac_single_shortest"] < 0.2
        # Jellyfish equivalents are "smoothed out" relative to SF
        assert by_name["SF-JF"]["frac_single_shortest"] < by_name["SF"]["frac_single_shortest"] + 0.2

    def test_fig07_almost_minimal_paths_plentiful(self):
        result = result_of("fig07")
        diameters = {"SF": 2, "SF-JF": 2, "DF": 3, "HX3": 3}
        for row in result.rows:
            # at "almost minimal" length (diameter + 1) most pairs have >= 3 paths
            if row["l"] >= diameters[row["topology"]] + 1:
                assert row["frac_ge3"] > 0.6
            # counts are bounded by the radix
            assert row["mean_frac_of_radix"] <= 1.0

    def test_fig08_interference_peaks_at_mid_lengths(self):
        result = result_of("fig08")
        sf_rows = {r["l"]: r for r in result.rows if r["topology"] == "SF"}
        # PI at l=3/4 is at least as large as at l=2 for SF
        assert sf_rows[3]["mean"] >= sf_rows[2]["mean"] - 0.5
        ft_rows = [r for r in result.rows if r["topology"] == "FT3"]
        # fat trees show (near-)zero interference
        assert all(r["mean"] <= 1.0 for r in ft_rows)

    def test_tab04_shape(self):
        result = result_of("tab04")
        by_name = {r["topology"]: r for r in result.rows}
        assert by_name["CLIQUE"]["CDP_mean_pct"] == pytest.approx(100, abs=5)
        assert by_name["FT3"]["PI_mean_pct"] <= 5
        assert by_name["SF"]["CDP_mean_pct"] > 50
        # deterministic SF has a worse 1% tail than its Jellyfish equivalent
        assert by_name["SF"]["CDP_tail1_pct"] <= by_name["SF-JF"]["CDP_tail1_pct"] + 5

    def test_tab05_parameters(self):
        result = result_of("tab05")
        by_name = {r["short_name"]: r for r in result.rows}
        assert by_name["SF"]["Nr"] == 50 and by_name["SF"]["k_prime"] == 7
        assert by_name["SF"]["measured_diameter"] == 2
        assert by_name["FT3"]["measured_diameter"] == 4

    def test_tab01_fatpaths_unique(self):
        result = result_of("tab01")
        assert result.rows[0]["name"] == "FatPaths"

    def test_fig10_costs_comparable(self):
        result = result_of("fig10")
        rel = {r["topology"]: r["relative_cost"] for r in result.rows}
        assert max(rel.values()) < 3.0
        assert rel["HX3"] >= min(rel.values())

    def test_fig19_density_and_radix(self):
        result = result_of("fig19")
        df_rows = [r for r in result.rows if r["topology"] == "DF"]
        sf_rows = [r for r in result.rows if r["topology"] == "SF"]
        # DF (diameter 3) needs more cables per endpoint than SF (diameter 2)
        assert np.mean([r["edge_density"] for r in df_rows]) > \
            np.mean([r["edge_density"] for r in sf_rows])
        # At the largest class in the sweep, the diameter-2 HyperX needs a larger radix
        # than the fat tree for a comparable N (the asymptotic trend of Fig 19).
        largest = max({r["size_class"] for r in result.rows},
                      key=lambda c: max(r["N"] for r in result.rows if r["size_class"] == c))
        rows = [r for r in result.rows if r["size_class"] == largest]
        ft = next(r for r in rows if r["topology"] == "FT3")
        hx2 = next(r for r in rows if r["topology"] == "HX2")
        assert ft["router_radix"] <= hx2["router_radix"]


class TestThroughputExperiments:
    def test_fig09_fatpaths_leads_on_low_diameter(self):
        result = result_of("fig09")
        for row in result.rows:
            best_fatpaths = max(row["fatpaths_interference"], row["fatpaths_random"])
            assert best_fatpaths >= row["past"] - 1e-9
            if row["topology"] in ("DF", "HX3", "XP"):
                assert best_fatpaths >= row["spain"] - 1e-9

    def test_fig02_low_diameter_beats_fat_tree(self):
        result = result_of("fig02")
        largest = max(r["flow_size_KiB"] for r in result.rows)
        rows = [r for r in result.rows if r["flow_size_KiB"] == largest]
        ft = next(r for r in rows if r["topology"] == "FT3")
        for name in ("SF", "XP"):
            low_diam = next(r for r in rows if r["topology"] == name)
            assert low_diam["throughput_mean_MiBs"] >= 0.95 * ft["throughput_mean_MiBs"]

    def test_fig11_nonminimal_multipathing_helps_sf_df(self):
        result = result_of("fig11")
        largest = max(r["flow_size_KiB"] for r in result.rows)

        def row_of(topo, stack):
            return next(r for r in result.rows
                        if r["topology"] == topo and r["stack"] == stack
                        and r["flow_size_KiB"] == largest)

        # Dragonfly is the clearest case in the paper: non-minimal multipathing must
        # improve both the tail and the mean over the minimal-path baseline.
        df_fat, df_ndp = row_of("DF", "fatpaths"), row_of("DF", "ndp")
        assert df_fat["throughput_tail1_MiBs"] > df_ndp["throughput_tail1_MiBs"]
        assert df_fat["throughput_mean_MiBs"] > df_ndp["throughput_mean_MiBs"]
        # On the tiny Slim Fly instance FatPaths must at least stay competitive.
        sf_fat, sf_ndp = row_of("SF", "fatpaths"), row_of("SF", "ndp")
        assert sf_fat["throughput_mean_MiBs"] >= 0.85 * sf_ndp["throughput_mean_MiBs"]

    def test_fig12_more_layers_do_not_hurt(self):
        result = result_of("fig12")
        for topo in ("SF", "DF"):
            rows = [r for r in result.rows if r["topology"] == topo]
            few = min(rows, key=lambda r: r["n_layers"])
            many = max(rows, key=lambda r: r["n_layers"])
            assert many["fct_p99_ms"] <= few["fct_p99_ms"] * 1.5
            assert many["mean_paths"] >= few["mean_paths"]

    def test_fig13_rows_present(self):
        result = result_of("fig13")
        assert {r["topology"] for r in result.rows} == {"SF", "SF-JF", "DF"}
        assert result.meta["fct_histograms"]

    def test_fig14_fatpaths_speedups(self):
        result = result_of("fig14")
        for row in result.rows:
            if row["variant"] == "ecmp":
                assert row["speedup_mean"] == pytest.approx(1.0)
        # FatPaths with non-minimal layers (rho=0.6) never loses to ECMP on mean FCT and
        # improves it somewhere on SF/DF; the larger tail gains of the paper emerge at
        # bigger scales.
        fp_rows = [r for r in result.rows if r["variant"] == "fatpaths_rho0.6"
                   and r["topology"] in ("SF", "DF")]
        assert all(r["speedup_mean"] >= 0.98 and r["speedup_p99"] >= 0.9 for r in fp_rows)
        assert any(r["speedup_mean"] >= 1.03 for r in fp_rows)

    def test_fig15_ecmp_has_heavier_tail(self):
        result = result_of("fig15")
        by_series = {r["series"]: r for r in result.rows}
        assert by_series["ecmp"]["tail_over_mean"] >= by_series["fatpaths_tcp"]["tail_over_mean"] - 0.3
        assert by_series["queueing_model"]["fct_mean_ms"] > 0

    def test_fig16_nonminimal_rho_helps_sf_tail(self):
        result = result_of("fig16")
        sf_rows = {r["rho"]: r for r in result.rows if r["topology"] == "SF"}
        best_nonminimal = min(v["fct_p99_ms"] for rho, v in sf_rows.items() if rho < 1)
        assert best_nonminimal <= sf_rows[1.0]["fct_p99_ms"] * 1.1

    def test_fig17_fatpaths_best_completion(self):
        result = result_of("fig17")
        for topo in {r["topology"] for r in result.rows}:
            rows = [r for r in result.rows if r["topology"] == topo]
            fp = [r["speedup_vs_ecmp"] for r in rows if r["variant"].startswith("fatpaths")]
            assert max(fp) >= 0.95

    def test_fig20_saturation(self):
        result = result_of("fig20")
        rates = sorted(r["lambda"] for r in result.rows)
        fct_by_rate = {r["lambda"]: r["fct_mean_ms"] for r in result.rows}
        # FCT grows with the arrival rate once past saturation
        assert fct_by_rate[rates[-1]] > fct_by_rate[rates[0]]


class TestRegistryScenarios:
    """Qualitative shapes of the registry scenarios beyond the paper's figures."""

    def test_incast_hotspot_bound(self):
        result = result_of("incast")
        assert {r["stack"] for r in result.rows} == {"fatpaths", "ndp", "ecmp"}
        for row in result.rows:
            # the hotspot NIC bounds throughput: nobody exceeds the 10G line rate
            assert row["throughput_mean_MiBs"] <= 10e9 / 8 / 2**20 * 1.01
            assert row["fct_p99_ms"] >= row["fct_p50_ms"]
        # adaptive stacks never lose to static ECMP hashing on the same topology
        by_key = {(r["topology"], r["stack"]): r for r in result.rows}
        for topo in {r["topology"] for r in result.rows}:
            assert by_key[(topo, "fatpaths")]["fct_p99_ms"] <= \
                by_key[(topo, "ecmp")]["fct_p99_ms"] * 1.05

    def test_failures_reroutes_and_degradation(self):
        result = result_of("failures")
        assert {r["stack"] for r in result.rows} == {"fatpaths", "ndp", "ecmp"}
        # the fault machinery is stack-independent, so every stack on a topology
        # sees the same schedule (same sampled links) and the same flow count
        by_topo = {}
        for row in result.rows:
            by_topo.setdefault(row["topology"], []).append(row)
        for rows in by_topo.values():
            assert len({r["failed_links"] for r in rows}) == len(
                {r["fail_fraction"] for r in rows})
            assert len({r["flows"] for r in rows}) == 1
        for row in result.rows:
            assert row["failed_links"] >= 1
            assert row["reroutes"] >= 0 and row["stalls"] >= 0
            assert row["fct_p99_ms"] >= row["fct_p50_ms"]
        # the outage must actually displace someone somewhere in the sweep
        assert sum(r["reroutes"] + r["stalls"] for r in result.rows) > 0

    def test_shuffle_fatpaths_competitive(self):
        result = result_of("shuffle")
        assert {r["stack"] for r in result.rows} == {"fatpaths", "ndp", "letflow"}
        by_key = {(r["topology"], r["stack"]): r for r in result.rows}
        # on the single-shortest-path topologies FatPaths' non-minimal layers must
        # at least match the minimal-path stacks' mean throughput
        for topo in ("SF", "DF"):
            fat = by_key[(topo, "fatpaths")]["throughput_mean_MiBs"]
            ndp = by_key[(topo, "ndp")]["throughput_mean_MiBs"]
            assert fat >= 0.9 * ndp
