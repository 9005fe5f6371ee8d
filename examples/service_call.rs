//! Parallel services across applications — the paper's Fig. 5 and Fig. 10.
//!
//! A striped-file-system application exposes its read graph as a parallel
//! service; two independent client applications call it concurrently
//! ("Two parallel applications calling parallel striped file services
//! provided by a third parallel application"). A graph call "is seen by the
//! client application as a simple leaf operation".
//!
//! Run with: `cargo run --release --example service_call`

use dps::cluster::ClusterSpec;
use dps::core::prelude::*;
use dps::core::{dps_token, SimEngine};
use dps::serial::Buffer;
use dps::sfs::{
    build_read_graph, build_write_graph, FileData, ReadFileReq, StripeStore, WriteFileReq,
};

dps_token! {
    /// A client's batch of file reads.
    pub struct Batch { pub files: Buffer<u64>, pub stripes: u32 }
}
dps_token! {
    /// One client's summary of everything it read.
    pub struct BatchDone { pub files: u32, pub bytes: u64 }
}

/// Fan a batch into per-file service calls.
struct SplitBatch;
impl SplitOperation for SplitBatch {
    type Thread = ();
    type In = Batch;
    type Out = ReadFileReq;
    fn execute(&mut self, ctx: &mut OpCtx<'_, (), ReadFileReq>, b: Batch) {
        for &file in b.files.iter() {
            ctx.post(ReadFileReq {
                file,
                stripes: b.stripes,
            });
        }
    }
}

/// Collect the files the service returned.
#[derive(Default)]
struct CollectFiles {
    files: u32,
    bytes: u64,
}
impl MergeOperation for CollectFiles {
    type Thread = ();
    type In = FileData;
    type Out = BatchDone;
    fn consume(&mut self, _ctx: &mut OpCtx<'_, (), BatchDone>, f: FileData) {
        self.files += 1;
        self.bytes += f.data.len() as u64;
    }
    fn finalize(&mut self, ctx: &mut OpCtx<'_, (), BatchDone>) {
        ctx.post(BatchDone {
            files: self.files,
            bytes: self.bytes,
        });
    }
}

fn client(eng: &mut SimEngine, name: &str, home: &str) -> dps::core::GraphHandle {
    let app = eng.app(name);
    eng.preload_app(app);
    let main: ThreadCollection<()> = eng.thread_collection(app, "m", home).unwrap();
    let mut b = GraphBuilder::new(format!("{name}-batch"));
    let s = b.split(&main, || ToThread(0), || SplitBatch);
    let call = b.call::<ReadFileReq, FileData, (), _>("sfs.read", &main, || ToThread(0));
    let m = b.merge(&main, || ToThread(0), CollectFiles::default);
    b.add(s >> call >> m);
    eng.build_graph(b).unwrap()
}

fn main() {
    let mut eng = SimEngine::new(ClusterSpec::paper_testbed(6));

    // The striped file system application spans nodes 2..=5.
    let sfs = eng.app("sfs");
    eng.preload_app(sfs);
    let smain: ThreadCollection<()> = eng.thread_collection(sfs, "m", "node2").unwrap();
    let disks: ThreadCollection<StripeStore> = eng
        .thread_collection(sfs, "disks", "node2 node3 node4 node5")
        .unwrap();
    let write = build_write_graph(&mut eng, &smain, &disks, None).unwrap();
    let _read = build_read_graph(&mut eng, &smain, &disks, Some("sfs.read")).unwrap();

    // Preload a few striped files through the write service.
    const STRIPES: u32 = 8;
    for file in 0..6u64 {
        let data = vec![file as u8; STRIPES as usize * 64 * 1024];
        eng.submit(
            write,
            Box::new(WriteFileReq {
                file,
                data: data.into(),
            }),
        )
        .unwrap();
    }
    eng.run_until_idle().unwrap();
    eng.take_outputs(write);

    // Two client applications on their own nodes, calling concurrently.
    let g1 = client(&mut eng, "client-A", "node0");
    let g2 = client(&mut eng, "client-B", "node1");
    eng.submit(
        g1,
        Box::new(Batch {
            files: vec![0, 2, 4].into(),
            stripes: STRIPES,
        }),
    )
    .unwrap();
    eng.submit(
        g2,
        Box::new(Batch {
            files: vec![1, 3, 5].into(),
            stripes: STRIPES,
        }),
    )
    .unwrap();
    let t0 = eng.now();
    eng.run_until_idle().unwrap();

    for (name, g) in [("client-A", g1), ("client-B", g2)] {
        let done = downcast::<BatchDone>(eng.take_outputs(g).pop().unwrap()).unwrap();
        println!(
            "{name}: read {} files, {} bytes through the sfs.read parallel service",
            done.files, done.bytes
        );
        assert_eq!(done.files, 3);
        assert_eq!(done.bytes, 3 * u64::from(STRIPES) * 64 * 1024);
    }
    println!(
        "both clients finished at {} (concurrent service calls over 4 striped disks)",
        eng.now().since(t0)
    );
}
