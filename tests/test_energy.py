import dataclasses

import pytest

from cloee import MODE_TABLE, ConfigError, EnergyParams, energy_breakdown
from cloee.energy import DEFAULT_ENERGY
from helpers import mode_for

ZERO_POWER = EnergyParams(eps_p=1e-12, p_cor=0, p_adc=0, p_lna=0, p_vga=0,
                          p_syn=0, p_gen=0, t_st=0)


class TestStartupEnergy:
    def test_default(self):
        assert energy_breakdown(mode_for(1), DEFAULT_ENERGY).eps_st == \
            pytest.approx(24.48e-6, rel=1e-12)

    def test_zero_cases(self):
        for ep in (dataclasses.replace(EnergyParams(), t_st=0.0),
                   dataclasses.replace(EnergyParams(), p_syn=0.0)):
            assert energy_breakdown(mode_for(1), ep).eps_st == 0.0


class TestPayloadEnergy:
    def test_reference_point(self):
        # 20 pJ pulse + 72.08 mW of circuits over one 64.1 ns symbol
        assert energy_breakdown(mode_for(1), DEFAULT_ENERGY).eps_b == \
            pytest.approx(4.640500992e-9, rel=1e-12)

    def test_pulse_energy_only(self):
        assert energy_breakdown(mode_for(8), ZERO_POWER).eps_b == pytest.approx(8e-12, rel=1e-12)

    def test_monotone_in_burst_order(self):
        values = [energy_breakdown(m, DEFAULT_ENERGY).eps_b for m in MODE_TABLE]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_scales_linearly_across_mode_table(self):
        # Fixed 1/32 duty cycle makes t_sym proportional to n_cpb, so both the
        # pulse and circuit terms scale together: eps_b is exactly linear in
        # n_cpb along the table rows.
        base = energy_breakdown(mode_for(1), DEFAULT_ENERGY).eps_b
        for mode in MODE_TABLE:
            assert energy_breakdown(mode, DEFAULT_ENERGY).eps_b == \
                pytest.approx(mode.n_cpb * base, rel=1e-12)

    def test_soft_decision_term_presence(self):
        mode = mode_for(4)
        ep = EnergyParams()
        soft = dataclasses.replace(ep, rho_c=1)
        assert energy_breakdown(mode, soft).eps_b - energy_breakdown(mode, ep).eps_b == \
            pytest.approx(ep.p_adc * mode.t_sym, rel=1e-12)

    def test_coherent_term_presence(self):
        mode = mode_for(4)
        ep = EnergyParams()
        coherent = dataclasses.replace(ep, rho_r=1)
        assert energy_breakdown(mode, coherent).eps_b - energy_breakdown(mode, ep).eps_b == \
            pytest.approx((ep.p_gen + ep.p_syn) * mode.t_sym, rel=1e-12)


class TestOverheadEnergy:
    def test_pulse_count_only(self):
        # 4*315 preamble pulses + 32*40 header pulses at 1 pJ each
        assert energy_breakdown(mode_for(1), ZERO_POWER).eps_oh == \
            pytest.approx(2540e-12, rel=1e-12)

    def test_reference_point(self):
        # pulses + (p_syn + rx chain) * 122.372 us; hard-decision non-coherent
        # receiver, so no ADC / generator / synthesizer terms on the rx side.
        assert energy_breakdown(mode_for(1), DEFAULT_ENERGY).eps_oh == \
            pytest.approx(8.87137376e-6, rel=1e-12)

    def test_fixed_terms_do_not_depend_on_the_mode(self):
        fixed = {(b.eps_oh, b.eps_st)
                 for b in (energy_breakdown(m, DEFAULT_ENERGY) for m in MODE_TABLE)}
        assert len(fixed) == 1


class TestHomogeneity:
    def test_energy_scales_with_power_constants(self):
        ep = EnergyParams()
        scaled = EnergyParams(
            eps_p=3 * ep.eps_p, p_cor=3 * ep.p_cor, p_adc=3 * ep.p_adc,
            p_lna=3 * ep.p_lna, p_vga=3 * ep.p_vga, p_syn=3 * ep.p_syn,
            p_gen=3 * ep.p_gen, t_st=ep.t_st,
        )
        mode = mode_for(16)
        base, tripled = energy_breakdown(mode, ep), energy_breakdown(mode, scaled)
        assert tripled.eps_b == pytest.approx(3 * base.eps_b, rel=1e-12)
        assert tripled.eps_oh == pytest.approx(3 * base.eps_oh, rel=1e-12)
        assert tripled.eps_st == pytest.approx(3 * base.eps_st, rel=1e-12)


class TestEnergyBreakdown:
    def test_total_composition(self):
        b = energy_breakdown(mode_for(32), DEFAULT_ENERGY)
        assert b.eps_st == pytest.approx(24.48e-6, rel=1e-12)
        assert b.total(1000) == pytest.approx(1000 * b.eps_b + b.eps_oh + b.eps_st, rel=1e-12)
        assert b.total(2000) > b.total(1000)
        assert b.eps_fixed == b.eps_oh + b.eps_st

    def test_validation(self):
        # Each setting fails at its own key; the cost overflow, which spans
        # several fields, fails at the section.
        overflow = "the energy costs of burst mode n_cpb=1 overflow a float"
        for kwargs, key, message in (
            (dict(eps_p=-1e-12), "energy.eps_p", "must be finite and >= 0, got -1e-12"),
            (dict(eps_p=0.0), "energy.eps_p", "must be > 0, got 0.0"),
            (dict(rho_r=2), "energy.rho_r", "must be 0 or 1, got 2"),
            (dict(m_fingers=1.5), "energy.m_fingers", "must be an integer, got 1.5"),
            (dict(rho_r=1.0), "energy.rho_r", "must be an integer, got 1.0"),
            (dict(rho_c=0.5), "energy.rho_c", "must be an integer, got 0.5"),
            # Finite settings: the start-up energy 2 * p_syn * t_st overflows,
            # or every cost is finite but eps_fixed / eps_b overflows.
            (dict(p_syn=1e308), "energy", overflow),
            (dict(t_st=1e308), "energy", overflow),
            # An integer too large to convert to a float fails the same way.
            (dict(m_fingers=10**400), "energy", overflow),
        ):
            with pytest.raises(ConfigError) as err:
                EnergyParams(**kwargs)
            assert (err.value.key, str(err.value)) == (key, f"{key}: {message}")
