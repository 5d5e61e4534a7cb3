//! The RISC-V micro-controller: switch programming and closed-loop
//! stimulation, run as real RV32 firmware on the [`halo_riscv`] simulator.

use std::sync::Arc;

use halo_noc::{Fabric, FabricError, Route};
use halo_riscv::asm::{Asm, AsmError};
use halo_riscv::bus::Mailbox;
use halo_riscv::{Cpu, CpuError, Memory, SystemBus};
use halo_telemetry::{Event, EventKind, NullSink, TelemetrySink};

/// MMIO address of the interconnect switch-programming register (§IV-E:
/// "we use instructions to write to general purpose IO pins that set the
/// switches dynamically").
pub const SWITCH_MMIO: u32 = 0x4000_0000;

/// MMIO address of the stimulation command register.
pub const STIM_MMIO: u32 = 0x4000_0010;

/// RAM address where the host stages the route-word table.
const TABLE_BASE: u32 = 0x800;

/// One stimulation pulse command decoded from a stim-register write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StimCommand {
    /// Electrode channel (0–15).
    pub channel: u8,
    /// Pulse amplitude in µA.
    pub amplitude_ua: u16,
}

impl StimCommand {
    /// Encodes the command as the 32-bit MMIO word the firmware writes.
    pub fn encode(&self) -> u32 {
        ((self.channel as u32) << 16) | self.amplitude_ua as u32
    }

    /// Decodes a stim-register write.
    pub fn decode(word: u32) -> Self {
        Self {
            channel: ((word >> 16) & 0xff) as u8,
            amplitude_ua: (word & 0xffff) as u16,
        }
    }
}

/// Errors raised by controller firmware.
#[derive(Debug, Clone, PartialEq)]
pub enum ControllerError {
    /// Firmware failed to assemble.
    Asm(AsmError),
    /// Firmware faulted.
    Cpu(CpuError),
    /// A programmed switch word was rejected by the fabric.
    Fabric(FabricError),
}

impl From<AsmError> for ControllerError {
    fn from(e: AsmError) -> Self {
        Self::Asm(e)
    }
}

impl From<CpuError> for ControllerError {
    fn from(e: CpuError) -> Self {
        Self::Cpu(e)
    }
}

impl From<FabricError> for ControllerError {
    fn from(e: FabricError) -> Self {
        Self::Fabric(e)
    }
}

impl std::fmt::Display for ControllerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Asm(e) => write!(f, "controller firmware: {e}"),
            Self::Cpu(e) => write!(f, "controller fault: {e}"),
            Self::Fabric(e) => write!(f, "switch programming: {e}"),
        }
    }
}

impl std::error::Error for ControllerError {}

/// The on-board micro-controller.
///
/// Each service routine is a small RV32 program assembled with
/// [`halo_riscv::asm::Asm`] and executed on a fresh [`Cpu`] over a 64 KB
/// [`Memory`] (the §IV-E/§V-A configuration). MMIO writes land in
/// mailboxes that the host (the hardware around the core) drains — into
/// the switch fabric or the stimulation engine.
pub struct Controller {
    cycles: u64,
    instructions: u64,
    sink: Arc<dyn TelemetrySink>,
    /// Frame index the surrounding system says we are at (timestamps for
    /// telemetry events; the controller itself has no frame clock).
    frame_hint: u64,
}

impl std::fmt::Debug for Controller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Controller")
            .field("cycles", &self.cycles)
            .field("instructions", &self.instructions)
            .finish()
    }
}

impl Default for Controller {
    fn default() -> Self {
        Self {
            cycles: 0,
            instructions: 0,
            sink: Arc::new(NullSink),
            frame_hint: 0,
        }
    }
}

impl Controller {
    /// Creates a controller with zeroed activity counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a telemetry sink; service routines report retired
    /// cycles/instructions, switch words, and stimulation pulses to it.
    pub fn attach_telemetry(&mut self, sink: Arc<dyn TelemetrySink>) {
        self.sink = sink;
    }

    /// Tells the controller what sample-frame index the device is at, so
    /// telemetry events it emits are placed on the timeline.
    pub fn note_frame(&mut self, frame: u64) {
        self.frame_hint = frame;
    }

    /// Cycles consumed by all service routines so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Instructions retired by all service routines so far.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Tears down and programs the interconnect switches for `routes`,
    /// running the switch-programming firmware and applying every MMIO
    /// write to `fabric`.
    ///
    /// # Errors
    ///
    /// Returns [`ControllerError`] if firmware fails or the fabric rejects
    /// a word.
    pub fn program_switches(
        &mut self,
        fabric: &mut Fabric,
        routes: &[Route],
    ) -> Result<(), ControllerError> {
        // Firmware: write CLEAR, then copy `count` words from the staged
        // table to the switch register.
        let mut a = Asm::new();
        a.li(5, SWITCH_MMIO as i32);
        a.sw(5, 0, 0); // x0 = WORD_CLEAR
        a.li(6, TABLE_BASE as i32);
        a.li(7, routes.len() as i32);
        a.label("loop");
        a.beq(7, 0, "done");
        a.lw(8, 6, 0);
        a.sw(5, 8, 0);
        a.addi(6, 6, 4);
        a.addi(7, 7, -1);
        a.j("loop");
        a.label("done");
        a.ecall();
        let program = a.assemble(0)?;
        let table: Vec<u32> = routes.iter().map(|r| Fabric::encode_route(*r)).collect();

        let mut bus = SystemBus::new(Memory::halo_default());
        bus.attach(Box::new(Mailbox::new(SWITCH_MMIO)));
        bus.load_program(0, &program);
        for (i, &w) in table.iter().enumerate() {
            bus.store32(TABLE_BASE + 4 * i as u32, w);
        }
        let mut cpu = Cpu::new();
        let result = cpu.run(&mut bus, 1_000_000)?;
        self.cycles += result.cycles;
        self.instructions += result.instructions;

        let words = drain_mailbox(&mut bus);
        let word_count = words.len() as u64;
        for w in words {
            fabric.program(w)?;
        }
        if self.sink.enabled() {
            self.sink.controller(result.cycles, result.instructions);
            self.sink.event(Event {
                frame: self.frame_hint,
                kind: EventKind::SwitchProgram {
                    words: word_count as u32,
                    generation: fabric.generation(),
                },
            });
        }
        Ok(())
    }

    /// Issues stimulation pulses on channels `0..channels` at
    /// `amplitude_ua`, as the closed-loop handler does when a detector
    /// fires (§IV-E: stimulation "occurs rarely and requires more complex
    /// decision-making … appropriate for software").
    ///
    /// # Errors
    ///
    /// Returns [`ControllerError`] if firmware fails.
    ///
    /// # Panics
    ///
    /// Panics if `channels` exceeds 16 (§V-A limit).
    pub fn stimulate(
        &mut self,
        channels: usize,
        amplitude_ua: u16,
    ) -> Result<Vec<StimCommand>, ControllerError> {
        assert!(channels <= 16, "at most 16 stimulation channels");
        // Firmware: for ch in 0..channels: write (ch << 16) | amplitude.
        let mut a = Asm::new();
        a.li(5, STIM_MMIO as i32);
        a.li(6, 0); // ch
        a.li(7, channels as i32);
        a.li(9, amplitude_ua as i32);
        a.label("loop");
        a.beq(6, 7, "done");
        a.slli(8, 6, 16);
        a.or(8, 8, 9);
        a.sw(5, 8, 0);
        a.addi(6, 6, 1);
        a.j("loop");
        a.label("done");
        a.ecall();
        let program = a.assemble(0)?;

        let mut bus = SystemBus::new(Memory::halo_default());
        bus.attach(Box::new(Mailbox::new(STIM_MMIO)));
        bus.load_program(0, &program);
        let mut cpu = Cpu::new();
        let result = cpu.run(&mut bus, 1_000_000)?;
        self.cycles += result.cycles;
        self.instructions += result.instructions;

        let commands: Vec<StimCommand> = drain_mailbox(&mut bus)
            .into_iter()
            .map(StimCommand::decode)
            .collect();
        if self.sink.enabled() {
            self.sink.controller(result.cycles, result.instructions);
            for c in &commands {
                self.sink.event(Event {
                    frame: self.frame_hint,
                    kind: EventKind::Stim {
                        channel: c.channel,
                        amplitude_ua: c.amplitude_ua as u32,
                    },
                });
            }
        }
        Ok(commands)
    }
}

/// Drains the mailbox attached at device index 0.
fn drain_mailbox(bus: &mut SystemBus) -> Vec<u32> {
    bus.device(0)
        .and_then(|d| d.as_any_mut().downcast_mut::<Mailbox>())
        .map(Mailbox::drain)
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use halo_noc::NodeId;

    #[test]
    fn firmware_programs_routes_through_mmio() {
        let routes = vec![
            Route {
                from: NodeId(0),
                to: NodeId(1),
                to_port: 0,
            },
            Route {
                from: NodeId(1),
                to: NodeId(2),
                to_port: 1,
            },
        ];
        let mut fabric = Fabric::new();
        let mut mcu = Controller::new();
        mcu.program_switches(&mut fabric, &routes).unwrap();
        assert_eq!(fabric.routes(), &routes[..]);
        assert!(mcu.cycles() > 0);
    }

    #[test]
    fn reprogramming_clears_previous_configuration() {
        let mut fabric = Fabric::new();
        let mut mcu = Controller::new();
        let first = vec![Route {
            from: NodeId(0),
            to: NodeId(1),
            to_port: 0,
        }];
        let second = vec![Route {
            from: NodeId(2),
            to: NodeId(3),
            to_port: 0,
        }];
        mcu.program_switches(&mut fabric, &first).unwrap();
        mcu.program_switches(&mut fabric, &second).unwrap();
        assert_eq!(fabric.routes(), &second[..]);
    }

    #[test]
    fn stimulation_firmware_emits_commands() {
        let mut mcu = Controller::new();
        let commands = mcu.stimulate(4, 500).unwrap();
        assert_eq!(commands.len(), 4);
        for (ch, c) in commands.iter().enumerate() {
            assert_eq!(c.channel as usize, ch);
            assert_eq!(c.amplitude_ua, 500);
        }
    }

    #[test]
    #[should_panic(expected = "at most 16")]
    fn stim_channel_limit_enforced() {
        let mut mcu = Controller::new();
        let _ = mcu.stimulate(17, 100);
    }

    #[test]
    fn stim_command_encoding_round_trips() {
        let c = StimCommand {
            channel: 11,
            amplitude_ua: 1234,
        };
        assert_eq!(StimCommand::decode(c.encode()), c);
    }
}
