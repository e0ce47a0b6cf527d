"""Figure 4 experiment: protocol and expected shape at small scale."""

import pytest

from repro.experiments.figure4 import PANELS, Figure4Result, run_panel
from repro.topology.variants import m_port_n_tree


@pytest.fixture(scope="module")
def small_result():
    # Small stand-in with the same structure as panel (b): 3-level tree.
    return run_panel("b", topology=m_port_n_tree(4, 3), fidelity_name="fast",
                     dense_k=True, seed=1)


class TestPanels:
    def test_panel_topologies_match_paper(self):
        assert PANELS["a"][0] == m_port_n_tree(16, 2)
        assert PANELS["b"][0] == m_port_n_tree(16, 3)
        assert PANELS["c"][0] == m_port_n_tree(24, 2)
        assert PANELS["d"][0] == m_port_n_tree(24, 3)

    def test_small_stand_ins_share_structure(self):
        from repro.experiments.figure4 import SMALL_PANELS

        for panel, (small, _) in SMALL_PANELS.items():
            assert small.h == PANELS[panel][0].h


class TestShape(object):
    def test_k_axis_full(self, small_result):
        xgft = m_port_n_tree(4, 3)
        assert small_result.ks == tuple(range(1, xgft.max_paths + 1))

    def test_dmodk_flat_reference(self, small_result):
        assert small_result.dmodk > 1.0

    def test_heuristics_decrease_overall(self, small_result):
        """Average max load at K = max is (weakly) below K = 1 for every
        heuristic, and equals the optimum-achieving UMULTI value."""
        for name, series in small_result.series.items():
            assert series[-1] <= series[0] + 1e-9, name
        finals = {round(s[-1], 6) for s in small_result.series.values()}
        assert len(finals) == 1  # all coincide with UMULTI at K=max

    def test_disjoint_no_worse_than_shift(self, small_result):
        """On 3-level trees the disjoint heuristic dominates shift-1
        (allowing sampling noise at a couple of points)."""
        dj = small_result.series["disjoint"]
        sh = small_result.series["shift-1"]
        worse = sum(1 for a, b in zip(dj, sh) if a > b * 1.05)
        assert worse <= len(dj) // 4

    def test_k1_matches_dmodk_for_based_heuristics(self, small_result):
        assert small_result.series["shift-1"][0] == pytest.approx(
            small_result.dmodk, rel=0.15
        )

    def test_render_contains_table_and_chart(self, small_result):
        text = small_result.render()
        assert "Figure 4(b)" in text
        assert "legend:" in text
        assert "d-mod-k" in text


class TestRows:
    def test_rows_align_with_ks(self, small_result):
        rows = small_result.rows()
        assert len(rows) == len(small_result.ks)
        assert rows[0][0] == 1


class TestEngines:
    def test_stacked_panel_matches_oracle_panel(self, monkeypatch):
        """A whole panel is unchanged when every sampling round is
        evaluated one permutation at a time by the oracle loop."""
        import repro.flow.sampling as sampling
        from tests.flow.oracles import loop_mloads

        xgft = m_port_n_tree(4, 2)
        kwargs = dict(topology=xgft, fidelity_name="fast", dense_k=True,
                      seed=7, random_seeds=(0, 1))
        stacked = run_panel("a", **kwargs)
        monkeypatch.setattr(sampling, "permutation_mloads", loop_mloads)
        assert run_panel("a", **kwargs) == stacked
