"""Report generation tests (table/figure renderers)."""

from repro.bench.reporting import (
    Table1Row,
    figure7,
    figure7_counts,
    figure8,
    figure8_series,
    table1,
    table1_row,
    table2,
    table2_rows,
)
from repro.bench import ALL_BENCHMARKS, MICRO_BENCHMARKS
from repro.bench.programs.micro import HASHTABLE2_SRC, RBTREE_SRC
from tests.test_benchmark_collection import load_report_script


def test_table1_row_measures_both_ks():
    row = table1_row("rbtree", RBTREE_SRC)
    assert row.program == "rbtree"
    assert row.sections == 3
    assert row.time_k0 > 0 and row.time_k9 > 0


def test_table1_rendering():
    rows = [Table1Row("x", 1.2, 3, 0.01, 0.02), Table1Row("y", 4.5, 1, 0.3, 0.4)]
    text = table1(rows)
    assert "Program" in text and "k=0 (s)" in text
    assert "x" in text and "4.5" in text


def test_figure7_counts_k0_all_coarse():
    counts = figure7_counts({"h2": HASHTABLE2_SRC}, ks=(0, 9))
    k0 = counts[0]
    assert k0.fine_ro == 0 and k0.fine_rw == 0
    assert k0.coarse_ro + k0.coarse_rw > 0
    k9 = counts[9]
    assert k9.fine_ro + k9.fine_rw > 0  # fine locks appear at k=9


def test_figure7_shape_over_the_full_corpus():
    """Figure 7: k=0 is all coarse, k=9 has fine locks, and the counts
    plateau from k=6 on."""
    sources = {name: spec.source for name, spec in ALL_BENCHMARKS.items()}
    counts = figure7_counts(sources, ks=(0, 6, 9))
    assert counts[0].fine_ro == 0 and counts[0].fine_rw == 0
    assert counts[9].fine_ro + counts[9].fine_rw > 0
    assert counts[6].total == counts[9].total


def test_ablation_effects_read_locks_shorten_rbtree_low():
    ablation = load_report_script("bench_ablation_schemes.py")
    with_effects, without_effects = ablation.effects_ticks(n_ops=12)
    assert with_effects < without_effects


def test_ablation_andersen_never_adds_locks():
    totals = load_report_script("bench_ablation_schemes.py").alias_totals()
    assert totals["andersen"] <= totals["steensgaard"]


def test_figure7_rendering():
    counts = figure7_counts({"h2": HASHTABLE2_SRC}, ks=(0, 3))
    text = figure7(counts)
    assert "k=0" in text and "k=3" in text and "fine-rw" in text


def test_table2_rows_and_rendering():
    benches = {"hashtable-2": MICRO_BENCHMARKS["hashtable-2"]}
    rows = table2_rows(benches, threads=2, n_ops=6)
    assert len(rows) == 2  # low and high settings
    text = table2(rows)
    assert "hashtable-2-low" in text and "hashtable-2-high" in text
    assert "Global" in text and "STM" in text


def test_table2_renders_config_subset():
    """Regression: table2 hard-indexed the four default configs and raised
    KeyError on any narrower sweep; it must render the columns present."""
    benches = {"hashtable-2": MICRO_BENCHMARKS["hashtable-2"]}
    rows = table2_rows(benches, threads=2, n_ops=6,
                       configs=("global", "fine+coarse"))
    text = table2(rows)
    assert "Global" in text and "Fine+Coarse (k=9)" in text
    assert "STM" not in text and "Coarse (k=0)" not in text
    assert "hashtable-2-low" in text and "hashtable-2-high" in text


def test_table2_renders_stm_only_sweep():
    benches = {"hashtable-2": MICRO_BENCHMARKS["hashtable-2"]}
    rows = table2_rows(benches, threads=2, n_ops=6, configs=("stm",))
    text = table2(rows)
    assert "STM" in text and "STM aborts" in text
    assert "Global" not in text


def test_figure8_series_and_rendering():
    series = figure8_series(
        benches=(("hashtable-2", "low"),),
        thread_counts=(1, 2),
        n_ops=6,
        configs=("global", "stm"),
    )
    data = series["hashtable-2-low"]
    assert set(data) == {"global", "stm"}
    assert set(data["global"]) == {1, 2}
    text = figure8(series)
    assert "hashtable-2-low" in text and "1 thr" in text
