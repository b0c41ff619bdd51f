//! The tiled accelerator layer (Figure 4).
//!
//! One tile per vault; each tile has a Local Memory, a Network Controller
//! on the mesh, and a switched cluster of accelerator PEs. The layer owns
//! the hardware configuration and the memory device the tiles talk to.

use mealib_memsim::MemoryConfig;
use mealib_noc::{Mesh, NocStats, TileId};
use mealib_tdl::AcceleratorKind;

use crate::hw::AccelHwConfig;
use crate::model::{AccelModel, ExecReport};
use crate::params::AccelParams;

/// One accelerator tile: local memory plus a PE cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tile {
    /// Position on the mesh (and the vault it fronts).
    pub id: TileId,
    /// Local Memory capacity, bytes.
    pub local_mem_bytes: u64,
    /// Accelerator PEs present behind this tile's switch.
    pub pes: Vec<AcceleratorKind>,
}

/// The accelerator layer: a mesh of tiles plus the device configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct AcceleratorLayer {
    mesh: Mesh,
    tiles: Vec<Tile>,
    hw: AccelHwConfig,
    mem: MemoryConfig,
    dma_scale: f64,
}

impl AcceleratorLayer {
    /// The paper's deployment: a 4×8 mesh (one tile per vault of the
    /// 32-vault stack), every PE kind in every tile, internal stack
    /// access.
    pub fn mealib_default() -> Self {
        let mesh = Mesh::mealib_layer();
        let hw = AccelHwConfig::mealib_default();
        let tiles = (0..mesh.rows())
            .flat_map(|r| (0..mesh.cols()).map(move |c| TileId::new(r, c)))
            .map(|id| Tile {
                id,
                local_mem_bytes: hw.local_mem_bytes,
                pes: AcceleratorKind::ALL.to_vec(),
            })
            .collect();
        Self {
            mesh,
            tiles,
            hw,
            mem: MemoryConfig::hmc_stack(),
            dma_scale: 1.0,
        }
    }

    /// Builds a layer with explicit parts (used by design-space sweeps).
    pub fn with_parts(mesh: Mesh, tiles: Vec<Tile>, hw: AccelHwConfig, mem: MemoryConfig) -> Self {
        Self {
            mesh,
            tiles,
            hw,
            mem,
            dma_scale: 1.0,
        }
    }

    /// Returns a copy with a scaled DMA efficiency (see
    /// [`AccelModel::execute_scaled`]).
    pub fn with_dma_scale(&self, dma_scale: f64) -> Self {
        Self {
            dma_scale,
            ..self.clone()
        }
    }

    /// The mesh NoC.
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// The tiles.
    pub fn tiles(&self) -> &[Tile] {
        &self.tiles
    }

    /// The hardware configuration.
    pub fn hw(&self) -> &AccelHwConfig {
        &self.hw
    }

    /// The memory device the layer sits under.
    pub fn mem(&self) -> &MemoryConfig {
        &self.mem
    }

    /// The layer roofline: the stack's peak bandwidth against the PE
    /// cluster's peak arithmetic throughput. This is what per-run
    /// bottleneck attribution classifies windows against.
    pub fn roofline(&self) -> mealib_obs::Roofline {
        mealib_obs::Roofline::new(self.mem.peak_bandwidth(), self.hw.peak_flops())
    }

    /// Returns a copy talking to a different memory device (e.g. the
    /// remote-stack view of §3.3).
    pub fn with_mem(&self, mem: MemoryConfig) -> Self {
        Self {
            mem,
            ..self.clone()
        }
    }

    /// Returns `true` if some tile has a PE of the given kind.
    pub fn supports(&self, kind: AcceleratorKind) -> bool {
        self.tiles.iter().any(|t| t.pes.contains(&kind))
    }

    /// Prices one accelerator invocation on this layer.
    ///
    /// # Panics
    ///
    /// Panics if no tile supports the accelerator the parameters name.
    pub fn execute(&self, params: &AccelParams) -> ExecReport {
        assert!(
            self.supports(params.kind()),
            "layer has no {} accelerator",
            params.kind()
        );
        AccelModel::new(params.kind()).execute_scaled(params, &self.hw, &self.mem, self.dma_scale)
    }

    /// Cost of distributing pass configuration from the Configuration
    /// Unit (at tile (0,0)) to every tile.
    pub fn config_broadcast(&self, bytes_per_tile: u64) -> NocStats {
        self.mesh.broadcast(TileId::new(0, 0), bytes_per_tile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_layer_has_32_tiles_with_all_pes() {
        let layer = AcceleratorLayer::mealib_default();
        assert_eq!(layer.tiles().len(), 32);
        for kind in AcceleratorKind::ALL {
            assert!(layer.supports(kind), "missing {kind}");
        }
    }

    #[test]
    fn execute_dispatches_to_model() {
        let layer = AcceleratorLayer::mealib_default();
        let r = layer.execute(&AccelParams::Axpy {
            n: 1 << 24,
            alpha: 1.0,
            incx: 1,
            incy: 1,
        });
        assert!(r.time.get() > 0.0);
        assert_eq!(r.kind, AcceleratorKind::Axpy);
    }

    #[test]
    fn broadcast_touches_all_tiles() {
        let layer = AcceleratorLayer::mealib_default();
        let stats = layer.config_broadcast(64);
        assert_eq!(stats.flits, 31 * 4);
    }

    #[test]
    #[should_panic(expected = "no FFT accelerator")]
    fn unsupported_kind_panics() {
        let layer = AcceleratorLayer::mealib_default();
        let tiles: Vec<Tile> = layer
            .tiles()
            .iter()
            .map(|t| Tile {
                pes: vec![AcceleratorKind::Axpy],
                ..t.clone()
            })
            .collect();
        let stripped = AcceleratorLayer::with_parts(
            layer.mesh().clone(),
            tiles,
            layer.hw().clone(),
            layer.mem().clone(),
        );
        let _ = stripped.execute(&AccelParams::Fft { n: 1024, batch: 1 });
    }
}
