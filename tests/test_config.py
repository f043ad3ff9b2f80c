"""Configuration: documented defaults, lossless file round-trip,
override precedence, and rejection of unknown keys."""

from __future__ import annotations

import dataclasses

import pytest

from truthfuse.config import (
    CopyParams,
    FusionConfig,
    RunConfig,
    load_config,
    save_config,
)
from truthfuse.model import LoadError


class TestDefaults:

    def test_constants_ledger(self):
        f = FusionConfig()
        assert f.alpha == 0.01
        assert f.time_tolerance_minutes == 10.0
        assert f.sim_decay_width_multiplier == 10.0
        assert f.sim_time_zero_at == 60.0
        assert f.rho == 0.5
        assert f.w_fmt == 0.5
        assert f.n_false == 10
        assert f.invest_exponent == 1.2
        assert f.pooled_exponent == 1.4
        assert f.cosine_damping == 0.8
        assert f.cosine_trust_power == 3.0
        assert f.truthfinder_gamma == 0.3
        assert f.init_vote == 0.5
        assert f.init_trust_bayes == 0.8
        assert f.init_value_trust == 0.9
        assert f.epsilon == 1e-6
        assert f.round_cap == 100
        assert f.trust_clamp == 1e-4
        assert f.attr_min_gold == 5
        assert len(dataclasses.fields(f)) == 19

    def test_copy_defaults(self):
        """Copy detection keeps only its own constants: the false-value
        domain and the trust clamp are the fusion config's."""
        assert dataclasses.asdict(CopyParams()) == {
            "prior_copy_prob": 0.1, "copy_rate": 0.8,
            "group_threshold": 0.5}


class TestRoundTrip:

    def test_file_round_trip_lossless(self, tmp_path):
        cfg = load_config(overrides={
            "fusion": {"alpha": 0.02, "n_false": 7, "rho": 0.25,
                       "round_cap": 42},
            "copy": {"prior_copy_prob": 0.05, "copy_rate": 0.9}})
        path = tmp_path / "cfg.ini"
        save_config(cfg, path)
        loaded = load_config(path, env={})
        assert loaded == cfg

    def test_default_round_trip(self, tmp_path):
        cfg = RunConfig()
        save_config(cfg, tmp_path / "d.ini")
        assert load_config(tmp_path / "d.ini", env={}) == cfg


class TestOverrides:

    def test_env_override(self):
        cfg = load_config(env={"TRUTHFUSE_FUSION__N_FALSE": "25",
                               "TRUTHFUSE_COPY__COPY_RATE": "0.33"})
        assert cfg.fusion.n_false == 25
        assert cfg.copy.copy_rate == 0.33

    def test_explicit_override_beats_env(self):
        cfg = load_config(env={"TRUTHFUSE_FUSION__N_FALSE": "25"},
                          overrides={"fusion": {"n_false": 3}})
        assert cfg.fusion.n_false == 3

    def test_unknown_key_named_in_error(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[fusion]\nnfalse = 3\n", encoding="utf-8")
        with pytest.raises(LoadError, match="nfalse"):
            load_config(path, env={})

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[fusionn]\nn_false = 3\n", encoding="utf-8")
        with pytest.raises(LoadError, match="fusionn"):
            load_config(path, env={})

    def test_out_of_range_values_rejected(self):
        with pytest.raises(LoadError):
            load_config(overrides={"fusion": {"rho": 1.5}})
        with pytest.raises(LoadError):
            load_config(overrides={"copy": {"prior_copy_prob": 0.6}})
        with pytest.raises(LoadError):
            load_config(overrides={"fusion": {"trust_clamp": 0.7}})
        for key in ("sim_decay_width_multiplier", "sim_time_zero_at"):
            with pytest.raises(LoadError, match=key):
                load_config(overrides={"fusion": {key: 0.0}})

    def test_copy_n_false_is_an_unknown_key(self, tmp_path):
        """The false-value domain lives in [fusion] only."""
        path = tmp_path / "old.ini"
        path.write_text("[copy]\nn_false = 10\n", encoding="utf-8")
        with pytest.raises(LoadError, match=r"\[copy\] 'n_false'"):
            load_config(path, env={})
        with pytest.raises(LoadError, match="n_false"):
            load_config(env={"TRUTHFUSE_COPY__N_FALSE": "10"})

    def test_missing_config_file_rejected(self, tmp_path):
        with pytest.raises(LoadError, match="not found"):
            load_config(tmp_path / "absent.ini", env={})
