//! CML gain-stage amplifier (paper Fig. 9).
//!
//! Structurally the [`super::cml_buffer`] topology with poly pull-up
//! resistors instead of diode loads — "every amplifier gain stage is
//! composed by CML gain stage circuit that includes pull-up resistors in
//! order to get larger voltage gain" — plus the same active feedback and
//! negative Miller capacitance. Four of these in cascade form the
//! limiting amplifier's core (Fig. 8).

use super::DiffPort;
use crate::design::CmlStage;
use cml_pdk::Pdk018;
use cml_spice::prelude::*;

/// Configuration of one gain stage.
#[derive(Debug, Clone, PartialEq)]
pub struct GainStageConfig {
    /// Electrical design point. `r_load` here is a real poly resistor.
    pub stage: CmlStage,
    /// Cross-coupled feedback pair tail fraction (0 disables).
    /// Stability requires the feedback gm to stay below `1/R_load`.
    pub feedback_frac: f64,
    /// Negative Miller capacitance, farads (0 disables).
    pub neg_miller: f64,
    /// Fraction of `r_load` realized as a series PMOS active inductor
    /// (diode-connected through `r_gate`) instead of poly resistance —
    /// the stage's inductive-peaking knob (0 disables).
    pub peaking_frac: f64,
    /// Active-inductor gate resistance, ohms (sets the peaking zero).
    pub r_gate: f64,
}

impl GainStageConfig {
    /// The limiting-amplifier gain stage as built: 4 mA tail, 350 Ω
    /// loads and 0.25 V input overdrive, so gm·R = 16 mS · 350 Ω = 5.6
    /// per stage on paper. At this point the stage's output common mode
    /// puts the next stage's tail below ground; ROADMAP item 16
    /// re-derives it under a tail-compliance check.
    #[must_use]
    pub fn paper_default() -> Self {
        GainStageConfig {
            stage: CmlStage {
                i_tail: 4e-3,
                r_load: 350.0,
                v_ov: 0.25,
            },
            feedback_frac: 0.0,
            neg_miller: 3e-15,
            peaking_frac: 0.3,
            r_gate: 400.0,
        }
    }

    /// The same stage with the peaking load disabled (pure poly load) —
    /// the ablation baseline.
    #[must_use]
    pub fn no_peaking() -> Self {
        GainStageConfig {
            peaking_frac: 0.0,
            ..GainStageConfig::paper_default()
        }
    }

    /// Static current drawn from the supply, amps.
    #[must_use]
    pub fn supply_current(&self) -> f64 {
        self.stage.i_tail * (1.0 + self.feedback_frac)
    }
}

/// Builds one gain stage into `ckt`. Interface identical to
/// [`super::cml_buffer::build`].
pub fn build(
    ckt: &mut Circuit,
    pdk: &Pdk018,
    cfg: &GainStageConfig,
    prefix: &str,
    input: DiffPort,
    output: DiffPort,
    vdd: NodeId,
) {
    let stage = &cfg.stage;
    let w_in = stage.input_width(pdk);
    let tail = ckt.internal_node(&format!("{prefix}_tail"));

    ckt.add(Mosfet::new(
        &format!("{prefix}_M1"),
        output.n,
        input.p,
        tail,
        Circuit::GROUND,
        pdk.nmos(w_in, cml_pdk::L_MIN),
    ));
    ckt.add(Mosfet::new(
        &format!("{prefix}_M2"),
        output.p,
        input.n,
        tail,
        Circuit::GROUND,
        pdk.nmos(w_in, cml_pdk::L_MIN),
    ));
    ckt.add(Isource::dc(
        &format!("{prefix}_IT"),
        tail,
        Circuit::GROUND,
        stage.i_tail,
    ));

    // Loads: poly pull-up, optionally with a series PMOS active inductor
    // replacing `peaking_frac` of the resistance.
    for (leg, out) in [("a", output.n), ("b", output.p)] {
        if cfg.peaking_frac > 0.0 {
            let r_ind = stage.r_load * cfg.peaking_frac; // 1/gm_p share
            let r_poly = stage.r_load - r_ind;
            let gm_p = 1.0 / r_ind;
            let card = pdk.pmos(1e-6, cml_pdk::L_MIN);
            let wl = gm_p * gm_p / (2.0 * card.kp * (stage.i_tail / 2.0));
            let w_p = wl * cml_pdk::L_MIN;
            let x = ckt.internal_node(&format!("{prefix}_x{leg}"));
            let g = ckt.internal_node(&format!("{prefix}_pg{leg}"));
            ckt.add(Resistor::new(
                &format!("{prefix}_RG{leg}"),
                g,
                x,
                cfg.r_gate,
            ));
            ckt.add(Mosfet::new(
                &format!("{prefix}_MP{leg}"),
                x,
                g,
                vdd,
                vdd,
                pdk.pmos(w_p, cml_pdk::L_MIN),
            ));
            ckt.add(Resistor::new(&format!("{prefix}_RL{leg}"), x, out, r_poly));
        } else {
            ckt.add(Resistor::new(
                &format!("{prefix}_RL{leg}"),
                vdd,
                out,
                stage.r_load,
            ));
        }
    }

    if cfg.feedback_frac > 0.0 {
        let fb_tail = ckt.internal_node(&format!("{prefix}_fbt"));
        let w_fb = w_in * cfg.feedback_frac;
        ckt.add(Mosfet::new(
            &format!("{prefix}_M5"),
            output.n,
            output.p,
            fb_tail,
            Circuit::GROUND,
            pdk.nmos(w_fb, cml_pdk::L_MIN),
        ));
        ckt.add(Mosfet::new(
            &format!("{prefix}_M6"),
            output.p,
            output.n,
            fb_tail,
            Circuit::GROUND,
            pdk.nmos(w_fb, cml_pdk::L_MIN),
        ));
        ckt.add(Isource::dc(
            &format!("{prefix}_IFB"),
            fb_tail,
            Circuit::GROUND,
            stage.i_tail * cfg.feedback_frac,
        ));
    }

    if cfg.neg_miller > 0.0 {
        ckt.add(Capacitor::new(
            &format!("{prefix}_CM1"),
            input.p,
            output.p,
            cfg.neg_miller,
        ));
        ckt.add(Capacitor::new(
            &format!("{prefix}_CM2"),
            input.n,
            output.n,
            cfg.neg_miller,
        ));
    }
    crate::cells::debug_assert_unique_names(ckt, prefix);
}

/// Output common mode: `VDD − (I_tail·(1+fb)/2)·R_load`, minus the PMOS
/// threshold drop when a peaking load is in series.
#[must_use]
pub fn output_common_mode(cfg: &GainStageConfig) -> f64 {
    let vth_drop = if cfg.peaking_frac > 0.0 { 0.45 } else { 0.0 };
    cml_pdk::VDD - vth_drop - cfg.stage.i_tail * (1.0 + cfg.feedback_frac) / 2.0 * cfg.stage.r_load
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::{add_diff_drive, add_supply};
    use cml_numeric::logspace;
    use cml_sig::Bode;

    fn stage_bode(cfg: &GainStageConfig, c_load: f64) -> Bode {
        let pdk = Pdk018::typical();
        let mut ckt = Circuit::new();
        let vdd = add_supply(&mut ckt, cml_pdk::VDD);
        let input = DiffPort::named(&mut ckt, "in");
        let output = DiffPort::named(&mut ckt, "out");
        add_diff_drive(&mut ckt, "VIN", input, output_common_mode(cfg), None);
        build(&mut ckt, &pdk, cfg, "gs", input, output, vdd);
        ckt.add(Capacitor::new("CLP", output.p, Circuit::GROUND, c_load));
        ckt.add(Capacitor::new("CLN", output.n, Circuit::GROUND, c_load));
        let freqs = logspace(1e7, 60e9, 120);
        crate::freq::differential_bode(&ckt, output, &freqs).unwrap()
    }

    #[test]
    fn stage_gain_approximately_gm_r() {
        let cfg = GainStageConfig {
            neg_miller: 0.0,
            peaking_frac: 0.0,
            ..GainStageConfig::paper_default()
        };
        let bode = stage_bode(&cfg, 20e-15);
        let dc = bode.dc_gain_db();
        // gm·R = 16 mS · 350 Ω = 5.6 → 15 dB; channel-length modulation
        // and body/junction losses shave some off.
        assert!(dc > 11.0 && dc < 16.0, "stage gain = {dc} dB");
    }

    #[test]
    fn cross_coupled_feedback_boosts_gain() {
        let plain = GainStageConfig {
            peaking_frac: 0.0,
            ..GainStageConfig::paper_default()
        };
        let fb = GainStageConfig {
            feedback_frac: 0.15,
            ..plain.clone()
        };
        let g_fb = stage_bode(&fb, 20e-15).dc_gain_db();
        let g_plain = stage_bode(&plain, 20e-15).dc_gain_db();
        assert!(g_fb > g_plain + 1.0, "{g_fb} vs {g_plain}");
    }

    #[test]
    fn peaking_load_extends_bandwidth() {
        let peaked = GainStageConfig::paper_default();
        let flat = GainStageConfig::no_peaking();
        let b_peaked = stage_bode(&peaked, 60e-15);
        let b_flat = stage_bode(&flat, 60e-15);
        let bw_p = b_peaked.bandwidth_3db().unwrap();
        let bw_f = b_flat.bandwidth_3db().unwrap();
        assert!(
            bw_p > 1.15 * bw_f,
            "peaking should extend bandwidth: {bw_p:.3e} vs {bw_f:.3e}"
        );
    }

    #[test]
    fn bandwidth_supports_10gbps() {
        let bode = stage_bode(&GainStageConfig::paper_default(), 20e-15);
        let bw = bode.bandwidth_3db().expect("rolls off");
        assert!(bw > 6e9, "gain stage bw = {bw:.3e}");
    }

    #[test]
    fn four_stage_cascade_reaches_la_gain() {
        // The LA needs ~40 dB differential DC gain; four raw stages give
        // more than that before interstage feedback trades some away.
        let pdk = Pdk018::typical();
        let cfg = GainStageConfig::paper_default();
        let mut ckt = Circuit::new();
        let vdd = add_supply(&mut ckt, cml_pdk::VDD);
        let input = DiffPort::named(&mut ckt, "in");
        add_diff_drive(&mut ckt, "VIN", input, output_common_mode(&cfg), None);
        let mut prev = input;
        let mut last = prev;
        for i in 0..4 {
            let out = DiffPort::named(&mut ckt, &format!("s{i}"));
            build(&mut ckt, &pdk, &cfg, &format!("gs{i}"), prev, out, vdd);
            prev = out;
            last = out;
        }
        let freqs = logspace(1e7, 40e9, 60);
        let bode = crate::freq::differential_bode(&ckt, last, &freqs).unwrap();
        let dc = bode.dc_gain_db();
        assert!(dc > 40.0, "4-stage cascade gain = {dc} dB");
        // A plain cascade has plenty of gain but poor bandwidth — the
        // limiting-amplifier cell restores it with interstage active
        // feedback (see `limiting_amp`); here we only sanity-check that
        // the cascade is not pathologically slow.
        let bw = bode.bandwidth_3db().expect("rolls off");
        assert!(bw > 0.5e9, "cascade bw = {bw:.3e}");
    }

    #[test]
    fn common_mode_formula() {
        let cfg = GainStageConfig::no_peaking();
        // 4 mA/2·350 Ω = 0.7 V below VDD.
        assert!((output_common_mode(&cfg) - (1.8 - 0.7)).abs() < 1e-9);
        // With the series PMOS the CM drops by an extra |V_TH|.
        let peaked = GainStageConfig::paper_default();
        assert!((output_common_mode(&peaked) - (1.8 - 0.45 - 0.7)).abs() < 1e-9);
    }
}
