//! One module per paper figure; [`run`] dispatches by id.

pub mod cpu;
pub mod gpu_devices;
pub mod hybrid;
pub mod lookup;
pub mod update;

use crate::context::RunCtx;
use crate::series::Figure;

/// All figure ids in paper order.
pub const ALL: &[&str] = &[
    "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
    "fig18",
];

/// Run one figure by id.
pub fn run(id: &str, ctx: &RunCtx) -> Figure {
    match id {
        "fig7" => cpu::fig7(ctx),
        "fig8" => lookup::fig8(ctx),
        "fig9" => lookup::fig9(ctx),
        "fig10" => lookup::fig10(ctx),
        "fig11" => lookup::fig11(ctx),
        "fig12" => lookup::fig12(ctx),
        "fig13" => hybrid::fig13(ctx),
        "fig14" => hybrid::fig14(ctx),
        "fig15" => update::fig15(ctx),
        "fig16" => update::fig16(ctx),
        "fig17" => update::fig17(ctx),
        "fig18" => gpu_devices::fig18(ctx),
        other => panic!("unknown figure id {other:?}; known: {ALL:?}"),
    }
}
