//! Striped file storage and its read/write parallel services.

use std::collections::HashMap;

use dps_core::prelude::*;
use dps_core::{dps_token, Engine, GraphHandle};
use dps_serial::Buffer;

use crate::disk::DiskModel;

/// Default stripe unit (bytes per stripe).
pub const STRIPE_UNIT: usize = 64 * 1024;

dps_token! {
    /// Write a whole file through the striped service.
    pub struct WriteFileReq { pub file: u64, pub data: Buffer<u8> }
}
dps_token! {
    /// One stripe on its way to a server thread.
    pub struct StripeWrite { pub file: u64, pub index: u32, pub data: Buffer<u8> }
}
dps_token! {
    /// A stripe landed on disk.
    pub struct StripeAck { pub file: u64, pub index: u32 }
}
dps_token! {
    /// Whole-file write acknowledgement.
    pub struct WriteAck { pub file: u64, pub stripes: u32 }
}
dps_token! {
    /// Read a whole file through the striped service.
    pub struct ReadFileReq { pub file: u64, pub stripes: u32 }
}
dps_token! {
    /// Request for one stripe.
    pub struct StripeRead { pub file: u64, pub index: u32 }
}
dps_token! {
    /// One stripe coming back from a disk.
    pub struct StripeData { pub file: u64, pub index: u32, pub data: Buffer<u8> }
}
dps_token! {
    /// Reassembled file contents.
    pub struct FileData { pub file: u64, pub data: Buffer<u8> }
}

/// Per-server-thread stripe storage: one virtual disk per thread.
#[derive(Debug, Default)]
pub struct StripeStore {
    /// `(file, stripe index) → bytes`.
    stripes: HashMap<(u64, u32), Vec<u8>>,
    /// Disk model used for cost accounting.
    pub disk: DiskModel,
}

impl StripeStore {
    /// Store one stripe.
    pub fn put(&mut self, file: u64, index: u32, data: Vec<u8>) {
        self.stripes.insert((file, index), data);
    }

    /// Fetch one stripe (cloned).
    pub fn get(&self, file: u64, index: u32) -> Option<Vec<u8>> {
        self.stripes.get(&(file, index)).cloned()
    }

    /// Number of stripes held.
    pub fn len(&self) -> usize {
        self.stripes.len()
    }

    /// True if no stripes are held.
    pub fn is_empty(&self) -> bool {
        self.stripes.is_empty()
    }
}

// --- operations -------------------------------------------------------------

struct SplitWrite;
impl SplitOperation for SplitWrite {
    type Thread = ();
    type In = WriteFileReq;
    type Out = StripeWrite;
    fn execute(&mut self, ctx: &mut OpCtx<'_, (), StripeWrite>, w: WriteFileReq) {
        let data = w.data.into_vec();
        if data.is_empty() {
            ctx.post(StripeWrite {
                file: w.file,
                index: 0,
                data: Buffer::new(),
            });
            return;
        }
        for (i, chunk) in data.chunks(STRIPE_UNIT).enumerate() {
            ctx.post(StripeWrite {
                file: w.file,
                index: i as u32,
                data: chunk.to_vec().into(),
            });
        }
    }
}

/// Write one stripe to this thread's disk.
pub(crate) struct StoreStripe;
impl LeafOperation for StoreStripe {
    type Thread = StripeStore;
    type In = StripeWrite;
    type Out = StripeAck;
    fn execute(&mut self, ctx: &mut OpCtx<'_, StripeStore, StripeAck>, s: StripeWrite) {
        let store = ctx.thread();
        let access = store.disk.access(s.data.len());
        store.put(s.file, s.index, s.data.into_vec());
        ctx.charge(access);
        ctx.post(StripeAck {
            file: s.file,
            index: s.index,
        });
    }
}

/// Count the stripes that landed.
#[derive(Default)]
pub(crate) struct MergeAcks {
    file: u64,
    stripes: u32,
}
impl MergeOperation for MergeAcks {
    type Thread = ();
    type In = StripeAck;
    type Out = WriteAck;
    fn consume(&mut self, _ctx: &mut OpCtx<'_, (), WriteAck>, a: StripeAck) {
        self.file = a.file;
        self.stripes += 1;
    }
    fn finalize(&mut self, ctx: &mut OpCtx<'_, (), WriteAck>) {
        ctx.post(WriteAck {
            file: self.file,
            stripes: self.stripes,
        });
    }
}

struct SplitRead;
impl SplitOperation for SplitRead {
    type Thread = ();
    type In = ReadFileReq;
    type Out = StripeRead;
    fn execute(&mut self, ctx: &mut OpCtx<'_, (), StripeRead>, r: ReadFileReq) {
        for i in 0..r.stripes.max(1) {
            ctx.post(StripeRead {
                file: r.file,
                index: i,
            });
        }
    }
}

struct ReadStripe;
impl LeafOperation for ReadStripe {
    type Thread = StripeStore;
    type In = StripeRead;
    type Out = StripeData;
    fn execute(&mut self, ctx: &mut OpCtx<'_, StripeStore, StripeData>, r: StripeRead) {
        let store = ctx.thread();
        let data = store.get(r.file, r.index).unwrap_or_default();
        let access = store.disk.access(data.len());
        ctx.charge(access);
        ctx.post(StripeData {
            file: r.file,
            index: r.index,
            data: data.into(),
        });
    }
}

#[derive(Default)]
struct AssembleFile {
    file: u64,
    parts: Vec<(u32, Vec<u8>)>,
}
impl MergeOperation for AssembleFile {
    type Thread = ();
    type In = StripeData;
    type Out = FileData;
    fn consume(&mut self, _ctx: &mut OpCtx<'_, (), FileData>, s: StripeData) {
        self.file = s.file;
        self.parts.push((s.index, s.data.into_vec()));
    }
    fn finalize(&mut self, ctx: &mut OpCtx<'_, (), FileData>) {
        self.parts.sort_by_key(|&(i, _)| i);
        let data: Vec<u8> = self.parts.drain(..).flat_map(|(_, d)| d).collect();
        ctx.post(FileData {
            file: self.file,
            data: data.into(),
        });
    }
}

// --- graph builders -----------------------------------------------------------

pub(crate) fn stripe_route_w() -> ByKey<StripeWrite, fn(&StripeWrite) -> usize> {
    ByKey::new(|s: &StripeWrite| s.index as usize)
}

fn stripe_route_r() -> ByKey<StripeRead, fn(&StripeRead) -> usize> {
    ByKey::new(|s: &StripeRead| s.index as usize)
}

/// Build the striped *write* service graph; optionally expose it under a
/// service name so other applications can call it (Fig. 5).
pub fn build_write_graph<E: Engine>(
    eng: &mut E,
    master: &ThreadCollection<()>,
    servers: &ThreadCollection<StripeStore>,
    service_name: Option<&str>,
) -> Result<GraphHandle> {
    let mut b = GraphBuilder::new("sfs-write");
    let s = b.split(master, || ToThread(0), || SplitWrite);
    let w = b.leaf(servers, stripe_route_w, || StoreStripe);
    let m = b.merge(master, || ToThread(0), MergeAcks::default);
    b.add(s >> w >> m);
    let g = eng.build_graph(b)?;
    if let Some(name) = service_name {
        eng.expose_service(g, name);
    }
    Ok(g)
}

/// Build the striped *read* service graph.
pub fn build_read_graph<E: Engine>(
    eng: &mut E,
    master: &ThreadCollection<()>,
    servers: &ThreadCollection<StripeStore>,
    service_name: Option<&str>,
) -> Result<GraphHandle> {
    let mut b = GraphBuilder::new("sfs-read");
    let s = b.split(master, || ToThread(0), || SplitRead);
    let r = b.leaf(servers, stripe_route_r, || ReadStripe);
    let m = b.merge(master, || ToThread(0), AssembleFile::default);
    b.add(s >> r >> m);
    let g = eng.build_graph(b)?;
    if let Some(name) = service_name {
        eng.expose_service(g, name);
    }
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dps_cluster::{default_mapping, ClusterSpec};
    use dps_core::{downcast, SimEngine};
    use dps_des::SimSpan;

    fn setup(
        nodes: usize,
    ) -> (
        SimEngine,
        ThreadCollection<()>,
        ThreadCollection<StripeStore>,
    ) {
        let eng = SimEngine::new(ClusterSpec::paper_testbed(nodes));
        setup_on(eng, "node0", &default_mapping(nodes, 1))
    }

    fn setup_on(
        mut eng: SimEngine,
        master: &str,
        servers: &str,
    ) -> (
        SimEngine,
        ThreadCollection<()>,
        ThreadCollection<StripeStore>,
    ) {
        let app = eng.app("sfs");
        eng.preload_app(app);
        let master: ThreadCollection<()> = eng.thread_collection(app, "m", master).unwrap();
        let servers: ThreadCollection<StripeStore> =
            eng.thread_collection(app, "disks", servers).unwrap();
        (eng, master, servers)
    }

    /// Reports how many stripes its thread holds, as a one-byte stripe.
    struct CountStripes;
    impl LeafOperation for CountStripes {
        type Thread = StripeStore;
        type In = StripeRead;
        type Out = StripeData;
        fn execute(&mut self, ctx: &mut OpCtx<'_, StripeStore, StripeData>, r: StripeRead) {
            let held = ctx.thread().len() as u8;
            ctx.post(StripeData {
                file: r.file,
                index: r.index,
                data: vec![held].into(),
            });
        }
    }

    /// The stripes each server thread holds, read through a graph: the read
    /// service's split and merge around a counting leaf.
    fn stripe_counts(
        eng: &mut SimEngine,
        master: &ThreadCollection<()>,
        servers: &ThreadCollection<StripeStore>,
    ) -> Vec<u8> {
        let mut b = GraphBuilder::new("sfs-count");
        let s = b.split(master, || ToThread(0), || SplitRead);
        let c = b.leaf(servers, stripe_route_r, || CountStripes);
        let m = b.merge(master, || ToThread(0), AssembleFile::default);
        b.add(s >> c >> m);
        let g = eng.build_graph(b).unwrap();
        let stripes = servers.thread_count() as u32;
        eng.submit(g, Box::new(ReadFileReq { file: 0, stripes }))
            .unwrap();
        eng.run_until_idle().unwrap();
        let out = eng.take_outputs(g).pop().unwrap();
        downcast::<FileData>(out).unwrap().data.into_vec()
    }

    #[test]
    fn write_then_read_roundtrips() {
        let (mut eng, master, servers) = setup(4);
        let wg = build_write_graph(&mut eng, &master, &servers, None).unwrap();
        let rg = build_read_graph(&mut eng, &master, &servers, None).unwrap();

        let payload: Vec<u8> = (0..200_000).map(|i| (i % 251) as u8).collect();
        let stripes = payload.len().div_ceil(STRIPE_UNIT) as u32;
        eng.submit(
            wg,
            Box::new(WriteFileReq {
                file: 7,
                data: payload.clone().into(),
            }),
        )
        .unwrap();
        eng.run_until_idle().unwrap();
        let ack = downcast::<WriteAck>(eng.take_outputs(wg).pop().unwrap()).unwrap();
        assert_eq!(ack.stripes, stripes);

        eng.submit(rg, Box::new(ReadFileReq { file: 7, stripes }))
            .unwrap();
        eng.run_until_idle().unwrap();
        let fd = downcast::<FileData>(eng.take_outputs(rg).pop().unwrap()).unwrap();
        assert_eq!(fd.data.as_slice(), payload.as_slice());
    }

    #[test]
    fn stripes_spread_across_servers() {
        let (mut eng, master, servers) = setup(4);
        let wg = build_write_graph(&mut eng, &master, &servers, None).unwrap();
        let payload = vec![0u8; STRIPE_UNIT * 8];
        eng.submit(
            wg,
            Box::new(WriteFileReq {
                file: 1,
                data: payload.into(),
            }),
        )
        .unwrap();
        eng.run_until_idle().unwrap();
        assert_eq!(
            stripe_counts(&mut eng, &master, &servers),
            [2, 2, 2, 2],
            "8 stripes round-robin over 4 disks"
        );
    }

    #[test]
    fn a_stripe_read_charges_the_disk_time_on_any_node() {
        // Master and disk share the half-speed node0, where requests enter
        // (same-node deliveries are free), and operations pay no framework
        // overhead: the read wave lasts exactly one disk access, whatever
        // the node's compute rate.
        let spec = ClusterSpec::heterogeneous(2, &[35.0e6, 70.0e6]);
        let ecfg = EngineConfig {
            op_overhead: SimSpan::ZERO,
            ..EngineConfig::default()
        };
        let eng = SimEngine::with_config(spec, ecfg);
        let (mut eng, master, servers) = setup_on(eng, "node0", "node0");
        let wg = build_write_graph(&mut eng, &master, &servers, None).unwrap();
        let rg = build_read_graph(&mut eng, &master, &servers, None).unwrap();
        eng.submit(
            wg,
            Box::new(WriteFileReq {
                file: 5,
                data: vec![1u8; STRIPE_UNIT].into(),
            }),
        )
        .unwrap();
        eng.run_until_idle().unwrap();
        let t0 = eng.now();
        eng.submit(
            rg,
            Box::new(ReadFileReq {
                file: 5,
                stripes: 1,
            }),
        )
        .unwrap();
        eng.run_until_idle().unwrap();
        assert_eq!(
            eng.now().since(t0),
            DiskModel::default().access(STRIPE_UNIT),
            "disk time does not scale with the node's compute rate"
        );
    }

    #[test]
    fn empty_file_write_is_handled() {
        let (mut eng, master, servers) = setup(2);
        let wg = build_write_graph(&mut eng, &master, &servers, None).unwrap();
        eng.submit(
            wg,
            Box::new(WriteFileReq {
                file: 9,
                data: Buffer::new(),
            }),
        )
        .unwrap();
        eng.run_until_idle().unwrap();
        let ack = downcast::<WriteAck>(eng.take_outputs(wg).pop().unwrap()).unwrap();
        assert_eq!(ack.stripes, 1, "placeholder stripe");
    }

    #[test]
    fn parallel_read_faster_than_single_disk() {
        // 4 disks deliver a striped file faster than 1 — the point of the
        // striped file system.
        let elapsed = |nodes: usize| {
            let (mut eng, master, servers) = setup(nodes);
            let wg = build_write_graph(&mut eng, &master, &servers, None).unwrap();
            let rg = build_read_graph(&mut eng, &master, &servers, None).unwrap();
            let payload = vec![7u8; STRIPE_UNIT * 16];
            eng.submit(
                wg,
                Box::new(WriteFileReq {
                    file: 3,
                    data: payload.into(),
                }),
            )
            .unwrap();
            eng.run_until_idle().unwrap();
            eng.take_outputs(wg);
            let t0 = eng.now();
            eng.submit(
                rg,
                Box::new(ReadFileReq {
                    file: 3,
                    stripes: 16,
                }),
            )
            .unwrap();
            eng.run_until_idle().unwrap();
            eng.now().since(t0)
        };
        let t1 = elapsed(1);
        let t4 = elapsed(4);
        assert!(
            t4.as_secs_f64() < t1.as_secs_f64() * 0.6,
            "striping should speed reads: 1 disk {t1}, 4 disks {t4}"
        );
    }
}
