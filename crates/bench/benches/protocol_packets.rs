//! Control-packet processing throughput for every protocol.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use slr_core::Fraction;
use slr_netsim::time::SimTime;
use slr_protocols::aodv::{Aodv, AodvConfig, AodvMessage, AodvRreq};
use slr_protocols::dsr::{Dsr, DsrConfig, DsrMessage, DsrRreq};
use slr_protocols::ldr::{Ldr, LdrConfig, LdrMessage, LdrRreq};
use slr_protocols::olsr::{Olsr, OlsrConfig, OlsrHello, OlsrMessage};
use slr_protocols::srp::{Srp, SrpConfig, SrpMessage, SrpRreq};
use slr_protocols::{ControlPacket, DataPacket, ProtoCtx, RoutingProtocol};

fn bench_rreq_handling(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(1);

    c.bench_function("protocol/srp_rreq_relay", |b| {
        let mut node = Srp::new(1, SrpConfig::default());
        let mut id = 0u64;
        b.iter(|| {
            id += 1;
            let rreq = SrpRreq {
                src: 7,
                rreq_id: id,
                dst: 9,
                dst_seqno: 0,
                fd: Fraction::one(),
                unknown: true,
                reset: false,
                dest_only: false,
                no_advert: false,
                d: 1,
                ttl: 5,
                src_seqno: 1,
                src_lfd: Fraction::new(1, 2).unwrap(),
                src_ld: 1,
            };
            let mut ctx = ProtoCtx {
                now: SimTime::from_secs(1),
                rng: &mut rng,
            };
            black_box(
                node.on_control_received(&mut ctx, 3, ControlPacket::Srp(SrpMessage::Rreq(rreq)))
                    .len(),
            )
        })
    });

    c.bench_function("protocol/aodv_rreq_relay", |b| {
        let mut node = Aodv::new(1, AodvConfig::default());
        let mut id = 0u64;
        b.iter(|| {
            id += 1;
            let rreq = AodvRreq {
                orig: 7,
                orig_seqno: id,
                rreq_id: id,
                dst: 9,
                dst_seqno: 0,
                unknown: true,
                hop_count: 1,
                ttl: 5,
            };
            let mut ctx = ProtoCtx {
                now: SimTime::from_secs(1),
                rng: &mut rng,
            };
            black_box(
                node.on_control_received(&mut ctx, 3, ControlPacket::Aodv(AodvMessage::Rreq(rreq)))
                    .len(),
            )
        })
    });

    c.bench_function("protocol/ldr_rreq_relay", |b| {
        let mut node = Ldr::new(1, LdrConfig::default());
        let mut id = 0u64;
        b.iter(|| {
            id += 1;
            let rreq = LdrRreq {
                orig: 7,
                rreq_id: id,
                dst: 9,
                dst_seqno: 0,
                fd: u32::MAX,
                unknown: true,
                reset: false,
                hop_count: 1,
                ttl: 5,
            };
            let mut ctx = ProtoCtx {
                now: SimTime::from_secs(1),
                rng: &mut rng,
            };
            black_box(
                node.on_control_received(&mut ctx, 3, ControlPacket::Ldr(LdrMessage::Rreq(rreq)))
                    .len(),
            )
        })
    });

    c.bench_function("protocol/dsr_rreq_relay", |b| {
        let mut node = Dsr::new(1, DsrConfig::default());
        let mut id = 0u64;
        b.iter(|| {
            id += 1;
            let rreq = DsrRreq {
                orig: 7,
                rreq_id: id,
                target: 9,
                route: vec![7, 3],
                ttl: 5,
            };
            let mut ctx = ProtoCtx {
                now: SimTime::from_secs(1),
                rng: &mut rng,
            };
            black_box(
                node.on_control_received(&mut ctx, 3, ControlPacket::Dsr(DsrMessage::Rreq(rreq)))
                    .len(),
            )
        })
    });

    c.bench_function("protocol/olsr_hello_then_route", |b| {
        let mut node = Olsr::new(1, OlsrConfig::default());
        let mut t = 1u64;
        b.iter(|| {
            t += 1;
            let hello = OlsrHello {
                origin: 2,
                sym_neighbors: vec![1, 5, 6, 7, 8],
                heard_neighbors: vec![9],
                mprs: vec![1],
            };
            let mut ctx = ProtoCtx {
                now: SimTime::from_millis(t),
                rng: &mut rng,
            };
            node.on_control_received(&mut ctx, 2, ControlPacket::Olsr(OlsrMessage::Hello(hello)));
            // The HELLO only marks the routing table dirty; the data
            // packet is what makes this iteration pay for the rebuild.
            let packet = DataPacket {
                src: 1,
                dst: 8,
                uid: t,
                origin_time: SimTime::ZERO,
                bytes: 512,
                ttl: 64,
                source_route: None,
            };
            black_box(node.on_data_from_app(&mut ctx, packet).len())
        })
    });
}

criterion_group!(benches, bench_rreq_handling);
criterion_main!(benches);
