//! RV32IM(C) micro-controller simulator for HALO.
//!
//! HALO integrates "a 2-stage in-order 32-bit Ibex RISC-V core … with the
//! RV32EC ISA" (§V-A) that (1) assembles PEs into pipelines by programming
//! interconnect switches, (2) configures PE parameters, (3) runs closed-loop
//! stimulation decisions, and (4) executes kernels for which no PE exists —
//! including the all-software baseline of Figure 4.
//!
//! This crate is a from-scratch instruction-set simulator covering:
//!
//! * **RV32I** base ISA plus the **M** multiply/divide extension,
//! * the **C** compressed extension (fetch understands mixed 16/32-bit
//!   streams — the paper calls out RVC as "used commonly for low-power
//!   embedded devices" to shrink program memory),
//! * an **RV32E** register-file mode (16 registers, as taped out),
//! * an Ibex-flavoured cycle model (2-cycle loads/stores and taken
//!   branches, multi-cycle divide),
//! * a memory-mapped I/O bus so controller programs can poke interconnect
//!   switches and stimulation registers,
//! * a label-aware [`asm::Asm`] mini-assembler for writing controller
//!   firmware in tests and experiments.
//!
//! Figure 4's all-software baseline is analytic: `halo-power` prices the
//! task on each core count of [`CORE_SWEEP`] from the cores' clock and
//! voltage, without running an array of simulated cores. The host cost
//! of the firmware this crate runs is measured by the benchmark package
//! (`benchmark trace`: `controller.program_switches_us`,
//! `controller.stimulate_us`, `controller.cycles_per_stim`); the
//! interpreter's raw instruction rate is not timed.
//!
//! # Example
//!
//! ```
//! use halo_riscv::asm::Asm;
//! use halo_riscv::{Cpu, Memory, SystemBus};
//!
//! // r10 = 6 * 7, then halt.
//! let mut a = Asm::new();
//! a.li(10, 6);
//! a.li(11, 7);
//! a.mul(10, 10, 11);
//! a.ecall();
//! let program = a.assemble(0).unwrap();
//!
//! let mut bus = SystemBus::new(Memory::new(0x1000));
//! bus.load_program(0, &program);
//! let mut cpu = Cpu::new();
//! cpu.run(&mut bus, 1_000).unwrap();
//! assert_eq!(cpu.reg(10), 42);
//! ```

pub mod asm;
pub mod bus;
pub mod cpu;
pub mod decode;
pub mod exec;

pub use bus::{Memory, MmioDevice, SystemBus};
pub use cpu::{Cpu, CpuError, HaltReason, RegisterMode, RunResult};
pub use decode::Instr;

/// Core counts of the paper's all-software sweep (Figure 4: "1–64 RISC-V
/// core counts, in powers of two").
pub const CORE_SWEEP: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];
