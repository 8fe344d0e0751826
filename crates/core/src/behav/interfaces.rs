//! Composed behavioural interfaces: the paper's Fig. 2 input interface,
//! Fig. 3 output interface, and the full TX → channel → RX link.

use super::blocks::{CmlBuffer, Equalizer, LevelShift, LimitingAmp, TaperedDriver, VoltagePeaking};
use super::Block;
use cml_channel::Backplane;
use cml_sig::UniformWave;

/// The CML input interface (Fig. 2): equalizer → CML input buffer →
/// limiting amplifier (4 gain stages + offset cancel) → output buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct InputInterface {
    /// Input equalizer (with 50 Ω termination in the circuit).
    pub equalizer: Equalizer,
    /// CML input buffer.
    pub input_buffer: CmlBuffer,
    /// Limiting amplifier.
    pub limiting_amp: LimitingAmp,
    /// CML output buffer toward the CDR.
    pub output_buffer: CmlBuffer,
}

impl InputInterface {
    /// The paper's nominal input interface.
    #[must_use]
    pub fn paper_default() -> Self {
        InputInterface {
            equalizer: Equalizer::paper_default(),
            input_buffer: CmlBuffer::paper_default(),
            limiting_amp: LimitingAmp::paper_default(),
            output_buffer: CmlBuffer::paper_default(),
        }
    }

    /// Same interface with the equalizer flattened (Fig. 15(a)).
    #[must_use]
    pub fn without_equalizer() -> Self {
        InputInterface {
            equalizer: Equalizer::flat(),
            ..InputInterface::paper_default()
        }
    }
}

impl Block for InputInterface {
    fn process(&self, input: &UniformWave) -> UniformWave {
        let w = self.equalizer.process(input);
        let w = self.input_buffer.process(&w);
        let w = self.limiting_amp.process(&w);
        self.output_buffer.process(&w)
    }
}

/// The CML output interface (Fig. 3): level shift → tapered CML stages →
/// voltage peaking summed at the 50 Ω output node (the differentiator
/// injects its spike *current* into the final load, so the spikes ride on
/// top of the limited output swing).
#[derive(Debug, Clone, PartialEq)]
pub struct OutputInterface {
    /// Level-shift circuit.
    pub level_shift: LevelShift,
    /// Voltage-peaking circuit inserted between output stages 1 and 2.
    pub peaking: VoltagePeaking,
    /// Three-stage tapered CML driver.
    pub driver: TaperedDriver,
}

impl OutputInterface {
    /// The paper's nominal output interface with 20 % peaking.
    #[must_use]
    pub fn paper_default() -> Self {
        OutputInterface {
            level_shift: LevelShift::paper_default(),
            peaking: VoltagePeaking::paper_default(),
            driver: TaperedDriver::paper_default(),
        }
    }

    /// Peaking disabled (Fig. 16(a)).
    #[must_use]
    pub fn without_peaking() -> Self {
        OutputInterface {
            peaking: VoltagePeaking::disabled(),
            ..OutputInterface::paper_default()
        }
    }
}

impl Block for OutputInterface {
    fn process(&self, input: &UniformWave) -> UniformWave {
        let w = self.level_shift.process(input);
        let w = self.driver.process(&w);
        self.peaking.process(&w)
    }
}

/// A full link: output interface (TX) → backplane → input interface (RX).
///
/// This is the paper's Fig. 1 deployment and the testbench behind the
/// Fig. 14/15 eye diagrams.
#[derive(Debug, Clone)]
pub struct IoLink {
    /// Transmit-side output interface.
    pub tx: OutputInterface,
    /// The backplane channel (`None` = back-to-back).
    pub channel: Option<Backplane>,
    /// Receive-side input interface.
    pub rx: InputInterface,
}

impl IoLink {
    /// Nominal link over a 0.5 m FR-4 backplane. The receive equalizer
    /// is tuned to the channel (boost 1.5 rather than the standalone
    /// default): TX pre-emphasis and RX equalization share the
    /// compensation budget, and stacking both at full strength
    /// over-equalizes.
    #[must_use]
    pub fn paper_default() -> Self {
        let mut rx = InputInterface::paper_default();
        rx.equalizer.boost = 1.5;
        IoLink {
            tx: OutputInterface::paper_default(),
            channel: Some(Backplane::fr4_trace(0.5)),
            rx,
        }
    }

    /// Back-to-back (no channel) link. Both compensators are tuned off —
    /// the RX equalizer flat (V1 high) and the TX peaking disabled —
    /// since boosting an unattenuated signal over-equalizes (visible as
    /// real bit errors in the `cdr_ber` experiment if left on).
    #[must_use]
    pub fn back_to_back() -> Self {
        IoLink {
            channel: None,
            tx: OutputInterface::without_peaking(),
            rx: InputInterface::without_equalizer(),
        }
    }
}

impl Block for IoLink {
    fn process(&self, input: &UniformWave) -> UniformWave {
        let tx_out = self.tx.process(input);
        let rx_in = match &self.channel {
            Some(bp) => bp.apply(&tx_out, true),
            None => tx_out,
        };
        self.rx.process(&rx_in)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cml_sig::nrz::NrzConfig;
    use cml_sig::prbs::Prbs;
    use cml_sig::{measure, EyeDiagram};

    fn prbs_wave(amplitude: f64) -> UniformWave {
        let bits: Vec<bool> = Prbs::prbs7().take(381).collect();
        NrzConfig::new(100e-12, amplitude).render(&bits)
    }

    fn eye_of(w: &UniformWave) -> cml_sig::EyeMetrics {
        EyeDiagram::fold(&w.skip_initial(3e-9), 100e-12).metrics()
    }

    #[test]
    fn input_interface_meets_sensitivity_and_swing() {
        // Fig. 14(a): 4 mV in → ≈250 mV per side out with an open eye.
        let rx = InputInterface::paper_default();
        let out = rx.process(&prbs_wave(4e-3));
        let m = eye_of(&out);
        assert!(m.height > 0.12, "eye height = {}", m.height);
        assert!(m.opening > 0.5, "opening = {}", m.opening);
        let swing = measure::swing(&out);
        assert!(swing > 0.35 && swing < 0.65, "swing = {swing}");
    }

    #[test]
    fn input_interface_tolerates_large_input() {
        // Fig. 14(b): 1.8 Vpp input must not break the interface — same
        // limited output swing, eye still open (40 dB dynamic range).
        let rx = InputInterface::paper_default();
        let out = rx.process(&prbs_wave(1.8));
        let m = eye_of(&out);
        assert!(m.opening > 0.25, "opening = {}", m.opening);
        assert!(m.height > 0.0, "eye must remain open at 1.8 Vpp");
        let swing = measure::swing(&out);
        assert!(swing < 0.7, "swing = {swing}");
    }

    #[test]
    fn equalizer_opens_the_post_channel_eye() {
        // Fig. 15: after the lossy backplane the eye without equalizer
        // is much worse than with it.
        let bp = Backplane::fr4_trace(0.6);
        let tx = OutputInterface::paper_default();
        let rx_eq = InputInterface::paper_default();
        let rx_no = InputInterface::without_equalizer();
        let sent = tx.process(&prbs_wave(0.5));
        let received = bp.apply(&sent, true);
        let m_eq = eye_of(&rx_eq.process(&received));
        let m_no = eye_of(&rx_no.process(&received));
        // The limiting amplifier restores amplitude either way; the
        // equalizer's win is timing margin (eye width / jitter).
        assert!(
            m_eq.width > m_no.width + 10e-12,
            "equalizer must widen the eye: with {:.1} ps vs without {:.1} ps",
            m_eq.width * 1e12,
            m_no.width * 1e12
        );
        assert!(m_eq.rms_jitter < m_no.rms_jitter);
    }

    #[test]
    fn full_link_end_to_end_eye_open() {
        let link = IoLink::paper_default();
        let out = link.process(&prbs_wave(0.5));
        let m = eye_of(&out);
        assert!(m.opening > 0.5, "link eye opening = {}", m.opening);
        assert!(m.height > 0.2, "link eye height = {}", m.height);
    }

    #[test]
    fn compensated_link_recovers_bits_error_free() {
        // The CDR-level claim behind Fig. 1: over the nominal compensated
        // backplane, the recovered bit stream is error-free, while the
        // raw (uncompensated, back-to-back) chain runs at its composite
        // bandwidth limit and shows residual errors — equalization is
        // what buys the margin.
        use crate::behav::cdr::{self, CdrConfig};
        let pattern = cml_sig::prbs::Prbs::prbs7().one_period();
        let mut seq = Vec::new();
        for _ in 0..5 {
            seq.extend_from_slice(&pattern);
        }
        let data = NrzConfig::new(100e-12, 0.5).render(&seq);
        let out = IoLink::paper_default().process(&data);
        let res = cdr::recover(&out, &CdrConfig::at_10gbps());
        let (errors, total) = cdr::bit_errors(&res.bits, &pattern);
        assert!(total > 300);
        assert_eq!(errors, 0, "compensated 0.5 m link must be error-free");
    }

    #[test]
    fn tx_peaking_improves_post_channel_eye() {
        // Fig. 16: with voltage peaking the post-channel eye improves in
        // both height and width on a moderate-loss trace.
        let bp = Backplane::fr4_trace(0.4);
        let w = prbs_wave(0.5);
        let with = bp.apply(&OutputInterface::paper_default().process(&w), true);
        let without = bp.apply(&OutputInterface::without_peaking().process(&w), true);
        let m_with = eye_of(&with);
        let m_without = eye_of(&without);
        assert!(
            m_with.height > m_without.height,
            "peaking must lift eye height: {} vs {}",
            m_with.height,
            m_without.height
        );
        assert!(
            m_with.width > m_without.width + 5e-12,
            "peaking must widen the eye: {:.1} ps vs {:.1} ps",
            m_with.width * 1e12,
            m_without.width * 1e12
        );
    }
}

impl InputInterface {
    /// Small-signal transfer of the whole input interface at `f` (Hz).
    #[must_use]
    pub fn small_signal(&self, f: f64) -> cml_numeric::Complex64 {
        self.equalizer.small_signal(f)
            * self.input_buffer.small_signal(f)
            * self.limiting_amp.small_signal(f)
            * self.output_buffer.small_signal(f)
    }

    /// Bode response over a frequency grid — the source of Table I's
    /// −3 dB bandwidth and DC-gain rows.
    #[must_use]
    pub fn bode(&self, freqs: &[f64]) -> cml_sig::Bode {
        let gains = freqs.iter().map(|&f| self.small_signal(f)).collect();
        cml_sig::Bode::new(freqs.to_vec(), gains)
    }
}

#[cfg(test)]
mod bode_tests {
    use super::*;

    #[test]
    fn interface_bode_has_ghz_bandwidth_and_high_gain() {
        let rx = InputInterface::paper_default();
        let freqs = cml_numeric::logspace(1e6, 60e9, 200);
        let bode = rx.bode(&freqs);
        let bw = bode.bandwidth_3db().expect("rolls off");
        assert!(bw > 4e9, "bw = {bw:.3e}");
        // Mid-band gain (above the offset high-pass, below the poles).
        let g = bode.gain_db_at(1e9);
        assert!(g > 30.0, "mid-band gain = {g} dB");
    }
}

/// [`Block`] adapter for the distributed backplane so channels compose
/// into [`Chain`](super::Chain)s alongside circuit blocks.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelBlock {
    /// The wrapped channel.
    pub channel: Backplane,
    /// Whether to remove the bulk line delay (keeps eye folding aligned).
    pub remove_delay: bool,
}

impl ChannelBlock {
    /// Wraps a backplane with delay removal on.
    #[must_use]
    pub fn new(channel: Backplane) -> Self {
        ChannelBlock {
            channel,
            remove_delay: true,
        }
    }
}

impl Block for ChannelBlock {
    fn process(&self, input: &UniformWave) -> UniformWave {
        self.channel.apply(input, self.remove_delay)
    }
}

#[cfg(test)]
mod channel_block_tests {
    use super::*;
    use crate::behav::Chain;
    use cml_sig::nrz::NrzConfig;
    use cml_sig::prbs::Prbs;

    #[test]
    fn chain_composes_interfaces_and_channel() {
        let bits: Vec<bool> = Prbs::prbs7().take(254).collect();
        let data = NrzConfig::new(100e-12, 0.5).render(&bits);
        let chain = Chain::new()
            .then(OutputInterface::paper_default())
            .then(ChannelBlock::new(Backplane::fr4_trace(0.5)))
            .then(InputInterface::paper_default());
        let via_chain = chain.process(&data);
        let via_link = IoLink {
            tx: OutputInterface::paper_default(),
            channel: Some(Backplane::fr4_trace(0.5)),
            rx: InputInterface::paper_default(),
        }
        .process(&data);
        assert_eq!(via_chain, via_link, "Chain and IoLink must agree");
    }
}
