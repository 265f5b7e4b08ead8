//! Names each item of this crate that the repo benchmark (`benchmark/src`, not
//! built by tier-1) uses, so narrowing one fails `cargo test` here.

use ftdircmp_noc::{
    Direction, FaultConfig, FaultDomainConfig, FaultEvent, Mesh, MeshConfig, RouterId, RoutingMode,
    VcClass,
};
use ftdircmp_sim::{Cycle, DetRng};

#[test]
fn benchmark_api_is_public() {
    let domains = FaultDomainConfig::events(vec![
        FaultEvent::LinkFlap {
            from: RouterId::new(5),
            dir: Direction::East,
            start: 0,
            end: 1,
        },
        FaultEvent::RegionBurst {
            epicenter: RouterId::new(10),
            radius: 1,
            start: 0,
            end: 1,
        },
    ]);
    let faults = FaultConfig::none().with_domains(domains);
    faults.validate().unwrap();
    // Functional update: every `MeshConfig` field must be public.
    let config = MeshConfig {
        faults: FaultConfig::per_million(2000.0),
        routing: RoutingMode::DimensionOrdered,
        ..MeshConfig::default()
    };
    let _ = RoutingMode::Adaptive;
    let mut mesh = Mesh::new(config, DetRng::from_seed(1));
    mesh.set_fault_config(faults);
    mesh.send(
        Cycle::new(0),
        RouterId::new(0),
        RouterId::new(3),
        8,
        VcClass::Request,
    );
    let stats = mesh.stats();
    assert!(stats.total_messages() + stats.total_dropped() >= 1);
}
