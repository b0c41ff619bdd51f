//! The MEALib runtime (§3.3, §3.5): shared memory management and
//! accelerator control.
//!
//! The accelerators have no MMU and require physically contiguous
//! buffers; legacy code uses virtual addresses and `malloc`. The runtime
//! bridges the two:
//!
//! * [`physmem::PhysicalSpace`] — a first-fit allocator over the reserved
//!   contiguous region of the Local Memory Stack;
//! * [`vmap::AddressSpaceMap`] — the device driver's `mmap` emulation,
//!   mapping allocated physical ranges into the host's virtual space;
//! * [`driver::MealibDriver`] — the ioctl-style facade: command space,
//!   data space, and a byte-accurate backing store so functional kernels
//!   can run on buffer contents;
//! * [`cache::CacheModel`] — the `wbinvd` write-back cost charged before
//!   every accelerator invocation (the paper keeps normal cache
//!   coherence and flushes dirty lines instead of using uncachable
//!   regions);
//! * [`control::Runtime`] — `mealib_mem_alloc`/`free`,
//!   `mealib_acc_plan`/`execute`/`destroy` (Listing 2), wired to the
//!   Configuration Unit model in `mealib-accel`;
//! * [`sanitizer::Sanitizer`] — the shadow-memory recorder that mirrors
//!   the static MEA1xx dataflow analysis at runtime, shadowing every
//!   host access, flush, and descriptor execution with per-buffer
//!   epoch + dirty-bit state.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod control;
pub mod driver;
pub mod physmem;
pub mod sanitizer;
pub mod vmap;

pub use cache::CacheModel;
pub use control::{AccPlan, RunReport, Runtime, RuntimeError, VerifyMode};
pub use driver::{BufferHandle, MealibDriver, StackId};
pub use physmem::PhysicalSpace;
pub use sanitizer::Sanitizer;
pub use vmap::AddressSpaceMap;
