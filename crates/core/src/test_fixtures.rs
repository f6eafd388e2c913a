//! Designs shared by the engine, DSE and unified-API test suites.
//!
//! Public (but `#[doc(hidden)]`) so that downstream test suites — notably
//! the `omnisim-dse` crate's differential tests — can drive the exact same
//! fixtures without duplicating the builders.

use omnisim_ir::{Design, DesignBuilder, Expr};

/// Blocking producer/consumer: the producer streams `data[0..n]` (values
/// `1..=n`) through a FIFO of the given depth; the consumer sums them at
/// the given initiation interval and outputs `sum`.
pub fn producer_consumer(n: i64, depth: usize, consumer_ii: u64) -> Design {
    build_producer_consumer(n, depth, consumer_ii, false)
}

/// [`producer_consumer`] plus a second FIFO (index 1, same depth) that no
/// task touches. With no recorded traffic on it, the recorded constraints
/// alone would certify any depth for it — zero included — which is what
/// pins the zero-depth rule to an up-front check.
pub fn producer_consumer_with_idle_fifo(n: i64, depth: usize, consumer_ii: u64) -> Design {
    build_producer_consumer(n, depth, consumer_ii, true)
}

fn build_producer_consumer(n: i64, depth: usize, consumer_ii: u64, idle_fifo: bool) -> Design {
    let mut d = DesignBuilder::new("pc");
    let data = d.array("data", (1..=n).collect::<Vec<i64>>());
    let out = d.output("sum");
    let q = d.fifo("q", depth);
    if idle_fifo {
        d.fifo("idle", depth);
    }
    let p = d.function("producer", |m| {
        m.counted_loop("i", n, 1, |b| {
            let i = b.var_expr("i");
            let v = b.array_load(data, i);
            b.fifo_write(q, Expr::var(v));
        });
    });
    let c = d.function("consumer", |m| {
        let acc = m.var("acc");
        m.entry(|b| {
            b.assign(acc, Expr::imm(0));
        });
        m.counted_loop("i", n, consumer_ii, |b| {
            let v = b.fifo_read(q);
            b.assign(acc, Expr::var(acc).add(Expr::var(v)));
        });
        m.exit(|b| {
            b.output(out, Expr::var(acc));
        });
    });
    d.dataflow_top("top", [p, c]);
    d.build().unwrap()
}

/// Non-blocking drop counter (Fig. 4 Ex. 4b shape): the producer attempts
/// `n` non-blocking writes and counts the drops; the slower consumer polls
/// with non-blocking reads. Growing the FIFO flips recorded `false` write
/// outcomes, which is what exercises the full-re-simulation fallback.
pub fn nb_drop_counter(n: i64, depth: usize, consumer_ii: u64) -> Design {
    let mut d = DesignBuilder::new("ex4b");
    let q = d.fifo("q", depth);
    let dropped = d.output("dropped");
    let received = d.output("received");
    let p = d.function("producer", |m| {
        let drops = m.var("drops");
        m.entry(|b| {
            b.assign(drops, Expr::imm(0));
        });
        m.counted_loop("i", n, 1, |b| {
            let i = b.var_expr("i");
            let ok = b.fifo_nb_write(q, i);
            b.assign(
                drops,
                Expr::var(ok).select(Expr::var(drops), Expr::var(drops).add(Expr::imm(1))),
            );
        });
        m.exit(|b| {
            b.output(dropped, Expr::var(drops));
        });
    });
    let c = d.function("consumer", |m| {
        let got = m.var("got");
        m.entry(|b| {
            b.assign(got, Expr::imm(0));
        });
        m.counted_loop("i", n, consumer_ii, |b| {
            let (_v, ok) = b.fifo_nb_read(q);
            b.assign(got, Expr::var(got).add(Expr::var(ok)));
        });
        m.exit(|b| {
            b.output(received, Expr::var(got));
        });
    });
    d.dataflow_top("top", [p, c]);
    d.build().unwrap()
}
