//! Sets of substitutions and the relational algebra of Section 2.
//!
//! A [`Bindings`] value is a set of substitutions `θ : cols → Values` over a
//! fixed, sorted column list — the paper's sets `S` of substitutions with
//! domain `W`. The operations are exactly those the paper uses: natural join
//! `S₁ ⋈ S₂`, semijoin `S₁ ⋉ S₂ = π_{W₁}(S₁ ⋈ S₂)`, projection `π_W`, and
//! selection `σ_θ`.
//!
//! The representation is canonical (columns ascending, rows sorted and
//! deduplicated), so `Bindings` values can be compared, hashed and used as
//! the `#`-relation elements of the Pichler–Skritek algorithm (Figure 13).
//!
//! # Kernel design
//!
//! A [`Bindings`] is one flat row-major buffer: with `w = cols.len()`, row
//! `i` is `data[i·w .. (i+1)·w]`. The row count is stored beside it, so
//! the nullary unit (one empty row) and the nullary empty set stay
//! distinct. Kernels allocate per *operation*, never per row, and every
//! comparison reads contiguous memory.
//!
//! Each operation first builds a small *plan* from the two sorted column
//! lists — shared positions, output layout — and then works on borrowed
//! row slices through position-indexed comparators. Joins run as
//! sort-merge over key-grouped row indices; when the shared columns are a
//! prefix of a side's column list, the canonical row order *is* key order
//! and the grouping sort is skipped. A semijoin gathers the probe side's
//! key columns into one contiguous, sorted, deduplicated key array (packed
//! into one `u64` per key of up to two columns) and binary-searches it;
//! when nothing is dropped the input comes back as is.
//!
//! Canonicalization sorts fixed-width rows in place: rows of up to four
//! columns are packed into one `u32`/`u64`/`u128` key each, wider rows are
//! sorted through an index permutation. It is the single chokepoint after
//! every parallel production, so the row-chunked paths (via
//! [`cqcount_exec::par_map`]) are byte-identical to the sequential ones.

use crate::{Col, Relation, Tuple, Value};
use cqcount_obs as obs;
use std::cmp::Ordering;
use std::fmt;

/// Total size in bytes of the values a result materializes, for the
/// `bytes_out` span counter.
fn bytes_of(b: &Bindings) -> u64 {
    (b.data.len() * std::mem::size_of::<Value>()) as u64
}

/// Row-count threshold below which the kernels stay sequential: chunking
/// costs more than it saves on small inputs, and tiny Bindings dominate the
/// decomposition pipelines.
const PAR_MIN_ROWS: usize = 4096;

/// Half-open `[start, end)` range of row indices within a sorted order.
type Span = (u32, u32);

/// A term in an atom evaluation: a column (variable) or a constant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ColTerm {
    /// A variable, identified by its column id.
    Var(Col),
    /// A constant value.
    Const(Value),
}

/// A set of substitutions over a sorted column list.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Bindings {
    cols: Vec<Col>,
    /// Sorted, deduplicated rows, row-major: `data[i * cols.len() + j]` is
    /// the value of `cols[j]` in row `i`.
    data: Vec<Value>,
    /// Number of rows. Explicit because with no columns the buffer is
    /// empty for both the unit (1 row) and the empty set (0 rows).
    len: usize,
}

impl fmt::Debug for Bindings {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Bindings")
            .field("cols", &self.cols)
            .field("rows", &self.rows().collect::<Vec<_>>())
            .finish()
    }
}

/// Compares two rows by their values at the given position lists
/// (`a[apos[k]]` vs `b[bpos[k]]`), without materializing either key.
#[inline]
fn cmp_keys(a: &[Value], apos: &[usize], b: &[Value], bpos: &[usize]) -> Ordering {
    debug_assert_eq!(apos.len(), bpos.len());
    for (&pa, &pb) in apos.iter().zip(bpos) {
        match a[pa].cmp(&b[pb]) {
            Ordering::Equal => {}
            other => return other,
        }
    }
    Ordering::Equal
}

/// True iff `positions` is exactly `0..positions.len()` — the key columns
/// are a prefix of the row, so canonical (lexicographic) row order is
/// already key order.
#[inline]
fn is_prefix(positions: &[usize]) -> bool {
    positions.iter().enumerate().all(|(i, &p)| i == p)
}

/// Positions in `left` / `right` of the columns both (sorted) lists share.
fn shared_positions(left: &[Col], right: &[Col]) -> (Vec<usize>, Vec<usize>) {
    let mut lpos = Vec::new();
    let mut rpos = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < left.len() && j < right.len() {
        match left[i].cmp(&right[j]) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                lpos.push(i);
                rpos.push(j);
                i += 1;
                j += 1;
            }
        }
    }
    (lpos, rpos)
}

/// Runs `f` over contiguous row ranges `[start, end)` covering `0..n` —
/// one range when `n` is small or there is one lane, otherwise up to two
/// per lane over the pool. Results come back in range order.
fn par_rows<R: Send>(n: usize, f: impl Fn(usize, usize) -> R + Sync) -> Vec<R> {
    let chunks = n
        .div_ceil(PAR_MIN_ROWS)
        .min(2 * cqcount_exec::current_threads());
    if chunks <= 1 {
        return vec![f(0, n)];
    }
    let step = n.div_ceil(chunks);
    let ranges: Vec<(usize, usize)> = (0..n)
        .step_by(step)
        .map(|s| (s, (s + step).min(n)))
        .collect();
    cqcount_exec::par_map(&ranges, |&(s, e)| f(s, e))
}

/// Concatenates per-range outputs, moving (not copying) a lone part.
fn concat<T: Copy>(mut parts: Vec<Vec<T>>) -> Vec<T> {
    if parts.len() == 1 {
        parts.pop().unwrap()
    } else {
        parts.concat()
    }
}

/// A short sequence of values (two for `u64`, four for `u128`) packed
/// into one integer whose numeric order is the sequence's lexicographic
/// order, for equal-length sequences.
trait PackedRow: Ord + Copy {
    fn pack(values: impl Iterator<Item = Value>) -> Self;
    fn unpack(self, out: &mut [Value]);
    /// The last packed value.
    fn low(self) -> u32;
}

macro_rules! packed_row {
    ($t:ty) => {
        impl PackedRow for $t {
            #[inline]
            fn pack(values: impl Iterator<Item = Value>) -> $t {
                values.fold(0, |k, v| (k << 32) | <$t>::from(v.0))
            }
            #[inline]
            fn low(self) -> u32 {
                self as u32
            }
            #[inline]
            fn unpack(mut self, out: &mut [Value]) {
                for slot in out.iter_mut().rev() {
                    *slot = Value(self as u32);
                    self >>= 32;
                }
            }
        }
    };
}
packed_row!(u64);
packed_row!(u128);

/// Sorts `w`-wide packed rows and drops duplicates, in place.
fn sort_dedup_packed<K: PackedRow>(data: &mut Vec<Value>, w: usize) {
    let mut keys: Vec<K> = data
        .chunks_exact(w)
        .map(|row| K::pack(row.iter().copied()))
        .collect();
    keys.sort_unstable();
    keys.dedup();
    data.truncate(keys.len() * w);
    for (k, out) in keys.into_iter().zip(data.chunks_exact_mut(w)) {
        k.unpack(out);
    }
}

/// Sorts the `w`-wide rows of `data` lexicographically and drops
/// duplicates, in place; returns the remaining row count. `w > 0`.
fn sort_dedup_rows(data: &mut Vec<Value>, w: usize) -> usize {
    debug_assert!(w > 0 && data.len().is_multiple_of(w));
    match w {
        1 => {
            data.sort_unstable();
            data.dedup();
        }
        2 => sort_dedup_packed::<u64>(data, w),
        3 | 4 => sort_dedup_packed::<u128>(data, w),
        _ => {
            let row = |i: u32| &data[i as usize * w..(i as usize + 1) * w];
            let mut order: Vec<u32> = (0..(data.len() / w) as u32).collect();
            order.sort_unstable_by(|&a, &b| row(a).cmp(row(b)));
            order.dedup_by(|a, b| row(*a) == row(*b));
            let mut out = Vec::with_capacity(order.len() * w);
            for &i in &order {
                out.extend_from_slice(row(i));
            }
            *data = out;
        }
    }
    data.len() / w
}

/// Drops adjacent duplicate `w`-wide rows of an already sorted buffer, in
/// place; returns the remaining row count. `w > 0`.
fn dedup_sorted_rows(data: &mut Vec<Value>, w: usize) -> usize {
    let n = data.len() / w;
    if n == 0 {
        return 0;
    }
    let mut kept = 1;
    for i in 1..n {
        if data[i * w..(i + 1) * w] != data[(kept - 1) * w..kept * w] {
            data.copy_within(i * w..(i + 1) * w, kept * w);
            kept += 1;
        }
    }
    data.truncate(kept * w);
    kept
}

/// Row indices of `b` arranged so equal keys (values at `positions`) are
/// contiguous and key-ascending, plus the `(start, end)` group bounds.
/// Skips the sort when the key is a row prefix (canonical order suffices).
fn key_groups(b: &Bindings, positions: &[usize]) -> (Vec<u32>, Vec<Span>) {
    let row = |i: u32| b.row(i as usize);
    // Equal-key runs stay in canonical row order, which partition_by
    // relies on: the sort is stable, or ties are broken by row index.
    let order: Vec<u32> = match positions.len() {
        _ if is_prefix(positions) => (0..b.len as u32).collect(),
        1 => order_by_packed_key::<u64>(b, positions),
        2 | 3 => order_by_packed_key::<u128>(b, positions),
        _ => {
            let mut order: Vec<u32> = (0..b.len as u32).collect();
            order.sort_by(|&x, &y| cmp_keys(row(x), positions, row(y), positions));
            order
        }
    };
    let mut groups = Vec::new();
    let mut start = 0u32;
    for i in 1..=order.len() as u32 {
        let boundary = i == order.len() as u32
            || cmp_keys(
                row(order[start as usize]),
                positions,
                row(order[i as usize]),
                positions,
            ) != Ordering::Equal;
        if boundary {
            groups.push((start, i));
            start = i;
        }
    }
    (order, groups)
}

/// Row indices of `b` sorted by their key at `positions`, ties by index:
/// each key and its row index are packed into one integer and sorted.
fn order_by_packed_key<K: PackedRow>(b: &Bindings, positions: &[usize]) -> Vec<u32> {
    let mut keyed: Vec<K> = b
        .rows()
        .enumerate()
        .map(|(i, r)| K::pack(positions.iter().map(|&p| r[p]).chain([Value(i as u32)])))
        .collect();
    keyed.sort_unstable();
    keyed.into_iter().map(K::low).collect()
}

/// Precomputed layout for `self ⋈ other`: shared key positions on both
/// sides and, for every output column (sorted union), which side and
/// position it is read from.
struct JoinPlan {
    lpos: Vec<usize>,
    rpos: Vec<usize>,
    out_cols: Vec<Col>,
    /// `(from_left, position)` per output column, in output order.
    emit: Vec<(bool, usize)>,
}

impl JoinPlan {
    fn new(lcols: &[Col], rcols: &[Col]) -> JoinPlan {
        let mut plan = JoinPlan {
            lpos: Vec::new(),
            rpos: Vec::new(),
            out_cols: Vec::with_capacity(lcols.len() + rcols.len()),
            emit: Vec::with_capacity(lcols.len() + rcols.len()),
        };
        let (mut i, mut j) = (0, 0);
        while i < lcols.len() && j < rcols.len() {
            match lcols[i].cmp(&rcols[j]) {
                Ordering::Less => {
                    plan.out_cols.push(lcols[i]);
                    plan.emit.push((true, i));
                    i += 1;
                }
                Ordering::Greater => {
                    plan.out_cols.push(rcols[j]);
                    plan.emit.push((false, j));
                    j += 1;
                }
                Ordering::Equal => {
                    plan.lpos.push(i);
                    plan.rpos.push(j);
                    plan.out_cols.push(lcols[i]);
                    plan.emit.push((true, i));
                    i += 1;
                    j += 1;
                }
            }
        }
        for (p, &c) in lcols.iter().enumerate().skip(i) {
            plan.out_cols.push(c);
            plan.emit.push((true, p));
        }
        for (p, &c) in rcols.iter().enumerate().skip(j) {
            plan.out_cols.push(c);
            plan.emit.push((false, p));
        }
        plan
    }

    /// True iff every left column precedes every right-only column: then
    /// left rows in canonical order, each followed by its partners in
    /// canonical order, come out already canonical.
    fn left_leads(&self, left_width: usize) -> bool {
        self.emit[..left_width]
            .iter()
            .enumerate()
            .all(|(i, &(from_left, p))| from_left && p == i)
    }

    /// Appends the combined row for a matched row pair to `out`, directly
    /// in output column order.
    #[inline]
    fn emit_row(&self, lrow: &[Value], rrow: &[Value], out: &mut Vec<Value>) {
        out.extend(
            self.emit
                .iter()
                .map(|&(from_left, p)| if from_left { lrow[p] } else { rrow[p] }),
        );
    }
}

/// Which rows of a semijoin's left side survive.
enum Kept {
    All,
    /// Ascending row indices (possibly none).
    Rows(Vec<u32>),
}

impl Bindings {
    /// The unit: zero columns, one (empty) substitution. Identity for ⋈.
    pub fn unit() -> Bindings {
        Bindings {
            cols: vec![],
            data: vec![],
            len: 1,
        }
    }

    /// No substitutions at all over the given columns.
    pub fn empty(mut cols: Vec<Col>) -> Bindings {
        cols.sort_unstable();
        cols.dedup();
        Bindings {
            cols,
            data: vec![],
            len: 0,
        }
    }

    /// Builds a bindings set from a column list and rows (one value per
    /// column, in the order given). Columns are sorted, rows permuted
    /// accordingly, then sorted and deduplicated.
    ///
    /// Panics on duplicate columns or row arity mismatch.
    pub fn from_rows(cols: Vec<Col>, rows: Vec<Vec<Value>>) -> Bindings {
        let mut order: Vec<usize> = (0..cols.len()).collect();
        order.sort_unstable_by_key(|&i| cols[i]);
        let sorted_cols: Vec<Col> = order.iter().map(|&i| cols[i]).collect();
        assert!(
            sorted_cols.windows(2).all(|w| w[0] < w[1]),
            "duplicate columns in Bindings::from_rows"
        );
        let mut data = Vec::with_capacity(rows.len() * order.len());
        for r in &rows {
            assert_eq!(r.len(), order.len(), "row arity mismatch");
            data.extend(order.iter().map(|&i| r[i]));
        }
        Bindings::canonical(sorted_cols, data, rows.len())
    }

    /// Wraps a row-major buffer of `len` rows the caller guarantees is
    /// already sorted, distinct, and in sorted column order — the wcoj
    /// kernel and frozen-page scans emit in exactly that order, so
    /// canonicalization is free there.
    pub(crate) fn from_sorted_flat(cols: Vec<Col>, data: Vec<Value>, len: usize) -> Bindings {
        debug_assert!(cols.windows(2).all(|w| w[0] < w[1]));
        debug_assert_eq!(data.len(), len * cols.len());
        debug_assert!(!cols.is_empty() || len <= 1);
        let out = Bindings { cols, data, len };
        debug_assert!((1..out.len).all(|i| out.row(i - 1) < out.row(i)));
        out
    }

    /// Canonicalizes a row-major buffer of `len` rows over sorted columns:
    /// sort + dedup. The single chokepoint that makes every parallel
    /// production deterministic — whatever order chunks arrive in, the
    /// canonical form is the same.
    fn canonical(cols: Vec<Col>, mut data: Vec<Value>, len: usize) -> Bindings {
        debug_assert!(cols.windows(2).all(|w| w[0] < w[1]));
        debug_assert_eq!(data.len(), len * cols.len());
        let len = match cols.len() {
            0 => len.min(1),
            w => sort_dedup_rows(&mut data, w),
        };
        Bindings { cols, data, len }
    }

    /// The rows at the given ascending indices, over the same columns.
    fn gather(&self, idx: &[u32]) -> Bindings {
        let mut data = Vec::with_capacity(idx.len() * self.cols.len());
        for &i in idx {
            data.extend_from_slice(self.row(i as usize));
        }
        Bindings {
            cols: self.cols.clone(),
            data,
            len: idx.len(),
        }
    }

    /// The rows satisfying `keep`, over the same columns (order kept).
    fn filtered(&self, keep: impl Fn(&[Value]) -> bool) -> Bindings {
        let mut data = Vec::new();
        let mut len = 0;
        for row in self.rows().filter(|r| keep(r)) {
            data.extend_from_slice(row);
            len += 1;
        }
        Bindings {
            cols: self.cols.clone(),
            data,
            len,
        }
    }

    /// Evaluates an atom `r(t₁, ..., tρ)` against a stored relation:
    /// constants are matched, repeated variables force equality, and the
    /// result is the set of substitutions over the atom's distinct columns.
    ///
    /// Panics if `terms.len() != relation.arity()`.
    pub fn from_atom(relation: &Relation, terms: &[ColTerm]) -> Bindings {
        assert_eq!(terms.len(), relation.arity(), "atom arity mismatch");
        let sp = obs::trace::span("algebra.scan");
        if sp.is_armed() {
            sp.add("rows_in", relation.len() as u64);
        }
        // Per-position action, precomputed once (not per tuple): constants
        // to match, repeated variables to check against their first
        // occurrence, and nothing for first occurrences themselves.
        enum Check {
            Const(Value),
            EqPos(usize),
            None,
        }
        let mut cols: Vec<Col> = Vec::new();
        let mut first_pos: Vec<usize> = Vec::new();
        let mut checks: Vec<Check> = Vec::with_capacity(terms.len());
        for (i, t) in terms.iter().enumerate() {
            match t {
                ColTerm::Const(v) => checks.push(Check::Const(*v)),
                ColTerm::Var(c) => match cols.iter().position(|x| x == c) {
                    Some(k) => checks.push(Check::EqPos(first_pos[k])),
                    None => {
                        cols.push(*c);
                        first_pos.push(i);
                        checks.push(Check::None);
                    }
                },
            }
        }
        // Emit rows directly in sorted column order.
        let mut order: Vec<usize> = (0..cols.len()).collect();
        order.sort_unstable_by_key(|&i| cols[i]);
        let sorted_cols: Vec<Col> = order.iter().map(|&i| cols[i]).collect();
        let emit_pos: Vec<usize> = order.iter().map(|&i| first_pos[i]).collect();
        // The scan reads borrowed row slices straight out of the
        // relation's flat value array — for a frozen relation that is the
        // mapped page itself, no copy.
        let parts = par_rows(relation.len(), |start, end| {
            let mut out = Vec::with_capacity((end - start) * emit_pos.len());
            let mut kept = 0;
            for tup in (start..end).map(|i| relation.row(i)) {
                let matches = checks.iter().enumerate().all(|(i, c)| match c {
                    Check::Const(v) => tup[i] == *v,
                    Check::EqPos(p) => tup[i] == tup[*p],
                    Check::None => true,
                });
                if matches {
                    out.extend(emit_pos.iter().map(|&p| tup[p]));
                    kept += 1;
                }
            }
            (out, kept)
        });
        let len = parts.iter().map(|(_, kept)| kept).sum();
        let data = concat(parts.into_iter().map(|(out, _)| out).collect());
        // A frozen page is sorted and distinct. Keeping its positions in
        // ascending order — the dropped ones are constants or repeats of
        // an earlier kept position, hence equal across the kept rows —
        // leaves the rows sorted and distinct.
        let out = if relation.sorted_values().is_some() && emit_pos.windows(2).all(|p| p[0] < p[1])
        {
            Bindings::from_sorted_flat(sorted_cols, data, len)
        } else {
            Bindings::canonical(sorted_cols, data, len)
        };
        if sp.is_armed() {
            sp.add("rows_out", out.len as u64);
            sp.add("bytes_out", bytes_of(&out));
        }
        out
    }

    /// The (sorted) column list.
    pub fn cols(&self) -> &[Col] {
        &self.cols
    }

    /// Row `i` of the canonical order, one value per column.
    #[inline]
    pub fn row(&self, i: usize) -> &[Value] {
        debug_assert!(i < self.len);
        let w = self.cols.len();
        &self.data[i * w..(i + 1) * w]
    }

    /// The canonical (sorted) rows, as borrowed slices.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[Value]> + DoubleEndedIterator + '_ {
        (0..self.len).map(move |i| self.row(i))
    }

    /// The flat row-major value buffer (`len() * cols().len()` values).
    pub(crate) fn values(&self) -> &[Value] {
        &self.data
    }

    /// Number of substitutions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` iff there are no substitutions.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns `true` iff the given row (in column order) is present.
    pub fn contains(&self, row: &[Value]) -> bool {
        self.search(|r| r.cmp(row))
    }

    /// Binary search over the canonical rows for one that `cmp` (row
    /// against target) calls equal.
    fn search(&self, cmp: impl Fn(&[Value]) -> Ordering) -> bool {
        let (mut lo, mut hi) = (0, self.len);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match cmp(self.row(mid)) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return true,
            }
        }
        false
    }

    /// Natural join `self ⋈ other` — sort-merge over key-grouped row
    /// indices. No per-row key tuples are ever allocated: grouping and the
    /// merge compare values in place through the position plans, and each
    /// output row is appended to one flat buffer in canonical column order.
    pub fn join(&self, other: &Bindings) -> Bindings {
        let sp = obs::trace::span("algebra.join");
        if sp.is_armed() {
            sp.add("rows_left", self.len as u64);
            sp.add("rows_right", other.len as u64);
        }
        let out = self.join_merge(other, &sp);
        if sp.is_armed() {
            sp.add("rows_out", out.len as u64);
            sp.add("bytes_out", bytes_of(&out));
        }
        out
    }

    fn join_merge(&self, other: &Bindings, sp: &obs::trace::Span) -> Bindings {
        let plan = JoinPlan::new(&self.cols, &other.cols);
        if !plan.left_leads(self.cols.len())
            && JoinPlan::new(&other.cols, &self.cols).left_leads(other.cols.len())
        {
            // The other side leads the output order: join from there.
            return other.join_merge(self, sp);
        }
        if plan.lpos.is_empty() {
            return self.cross_product(other, plan);
        }
        let (lorder, lgroups) = key_groups(self, &plan.lpos);
        let (rorder, rgroups) = key_groups(other, &plan.rpos);
        // Merge the two key-sorted group lists into matched group pairs.
        let mut matches: Vec<(Span, Span)> = Vec::new();
        let mut comparisons = 0u64;
        let (mut gi, mut gj) = (0, 0);
        while gi < lgroups.len() && gj < rgroups.len() {
            let lrow = self.row(lorder[lgroups[gi].0 as usize] as usize);
            let rrow = other.row(rorder[rgroups[gj].0 as usize] as usize);
            comparisons += 1;
            match cmp_keys(lrow, &plan.lpos, rrow, &plan.rpos) {
                Ordering::Less => gi += 1,
                Ordering::Greater => gj += 1,
                Ordering::Equal => {
                    matches.push((lgroups[gi], rgroups[gj]));
                    gi += 1;
                    gj += 1;
                }
            }
        }
        if sp.is_armed() {
            sp.add("merge_comparisons", comparisons);
        }
        // Emit the per-pair products; chunked over matched groups so large
        // joins parallelize, concatenation order fixed by the chunk index.
        let pairs_of = |pairs: &[(Span, Span)]| -> usize {
            pairs
                .iter()
                .map(|&((ls, le), (rs, re))| (le - ls) as usize * (re - rs) as usize)
                .sum()
        };
        let total_pairs = pairs_of(&matches);
        let width = plan.out_cols.len();
        if plan.left_leads(self.cols.len()) {
            // Emit in canonical left order, so no sort is needed: scatter
            // each matched group's partner span onto its left rows first.
            let mut partners: Vec<Span> = vec![(0, 0); self.len];
            for &((ls, le), rspan) in &matches {
                for &li in &lorder[ls as usize..le as usize] {
                    partners[li as usize] = rspan;
                }
            }
            let data = concat(par_rows(self.len, |start, end| {
                let pairs: usize = partners[start..end]
                    .iter()
                    .map(|&(rs, re)| (re - rs) as usize)
                    .sum();
                let mut out = Vec::with_capacity(pairs * width);
                for (li, &(rs, re)) in partners.iter().enumerate().take(end).skip(start) {
                    let lrow = self.row(li);
                    for &ri in &rorder[rs as usize..re as usize] {
                        plan.emit_row(lrow, other.row(ri as usize), &mut out);
                    }
                }
                out
            }));
            return Bindings::from_sorted_flat(plan.out_cols, data, total_pairs);
        }
        let emit_chunk = |pairs: &[(Span, Span)]| -> Vec<Value> {
            let mut out = Vec::with_capacity(pairs_of(pairs) * width);
            for &((ls, le), (rs, re)) in pairs {
                for &li in &lorder[ls as usize..le as usize] {
                    let lrow = self.row(li as usize);
                    for &ri in &rorder[rs as usize..re as usize] {
                        plan.emit_row(lrow, other.row(ri as usize), &mut out);
                    }
                }
            }
            out
        };
        // Parallelize only when the products dominate the group count:
        // near-1:1 joins (avg fan-out < 4) spend their time in the final
        // canonicalizing sort, not here, and chunked emission just adds
        // a concatenation copy.
        let emit_dominates = total_pairs >= 4 * matches.len();
        let data = if total_pairs >= PAR_MIN_ROWS && matches.len() > 1 && emit_dominates {
            concat(cqcount_exec::par_chunks(&matches, 1, |_, chunk| {
                emit_chunk(chunk)
            }))
        } else {
            emit_chunk(&matches)
        };
        Bindings::canonical(plan.out_cols, data, total_pairs)
    }

    /// Cartesian product (a join with no shared columns).
    fn cross_product(&self, other: &Bindings, plan: JoinPlan) -> Bindings {
        let total = self.len.saturating_mul(other.len);
        let width = plan.out_cols.len();
        let emit = |&(s, e): &(usize, usize)| -> Vec<Value> {
            let mut out = Vec::with_capacity((e - s) * other.len * width);
            for li in s..e {
                let lrow = self.row(li);
                for rrow in other.rows() {
                    plan.emit_row(lrow, rrow, &mut out);
                }
            }
            out
        };
        let data = if total >= PAR_MIN_ROWS && self.len > 1 {
            // Blocks of left rows, each emitting at least PAR_MIN_ROWS
            // rows, at most two per lane.
            let lanes = 2 * cqcount_exec::current_threads();
            let per_block = PAR_MIN_ROWS
                .div_ceil(other.len)
                .max(self.len.div_ceil(lanes));
            let blocks: Vec<(usize, usize)> = (0..self.len)
                .step_by(per_block)
                .map(|s| (s, (s + per_block).min(self.len)))
                .collect();
            concat(cqcount_exec::par_map(&blocks, emit))
        } else {
            emit(&(0, self.len))
        };
        if plan.left_leads(self.cols.len()) {
            Bindings::from_sorted_flat(plan.out_cols, data, total)
        } else {
            Bindings::canonical(plan.out_cols, data, total)
        }
    }

    /// Semijoin `self ⋉ other = π_{cols(self)}(self ⋈ other)`.
    ///
    /// Probes a sorted, deduplicated key array gathered from `other` by
    /// binary search — no hash set, no index indirection. Kept rows are a
    /// subsequence of the canonical rows, so the result needs no re-sort,
    /// and chunked filtering concatenates back in order.
    pub fn semijoin(&self, other: &Bindings) -> Bindings {
        let sp = obs::trace::span("algebra.semijoin");
        let out = match self.semijoin_kept(other, &sp) {
            Kept::All => self.clone(),
            Kept::Rows(idx) => self.gather(&idx),
        };
        if sp.is_armed() {
            sp.add("rows_out", out.len as u64);
            sp.add("bytes_out", bytes_of(&out));
        }
        out
    }

    /// In-place semijoin: replaces `self` by `self ⋉ other`, compacting
    /// the kept rows within the existing buffer. Returns `true` iff a row
    /// was dropped — when none is, nothing is copied at all.
    pub fn semijoin_in_place(&mut self, other: &Bindings) -> bool {
        let sp = obs::trace::span("algebra.semijoin");
        let changed = match self.semijoin_kept(other, &sp) {
            Kept::All => false,
            Kept::Rows(idx) => {
                let w = self.cols.len();
                for (dst, &src) in idx.iter().enumerate() {
                    let src = src as usize;
                    self.data.copy_within(src * w..(src + 1) * w, dst * w);
                }
                self.data.truncate(idx.len() * w);
                self.len = idx.len();
                true
            }
        };
        if sp.is_armed() {
            sp.add("rows_out", self.len as u64);
            sp.add("bytes_out", bytes_of(self));
        }
        changed
    }

    fn semijoin_kept(&self, other: &Bindings, sp: &obs::trace::Span) -> Kept {
        if sp.is_armed() {
            sp.add("rows_left", self.len as u64);
            sp.add("rows_right", other.len as u64);
            sp.add("probes", self.len as u64);
        }
        let (lpos, rpos) = shared_positions(&self.cols, &other.cols);
        if lpos.is_empty() {
            // No shared columns: keep everything iff `other` is nonempty.
            return if other.is_empty() && !self.is_empty() {
                Kept::Rows(Vec::new())
            } else {
                Kept::All
            };
        }
        let kept: Vec<u32> = if rpos.len() <= 2 {
            // Keys of one or two columns probe as packed integers.
            let mut keys: Vec<u64> = other
                .rows()
                .map(|row| u64::pack(rpos.iter().map(|&p| row[p])))
                .collect();
            keys.sort_unstable();
            keys.dedup();
            self.kept_rows(|row| {
                keys.binary_search(&u64::pack(lpos.iter().map(|&p| row[p])))
                    .is_ok()
            })
        } else {
            // Wider keys: `other` projected onto them is the sorted,
            // distinct key array.
            let keys = other.project_positions(&rpos);
            let kpos: Vec<usize> = (0..rpos.len()).collect();
            self.kept_rows(|row| keys.search(|key| cmp_keys(key, &kpos, row, &lpos)))
        };
        if kept.len() == self.len {
            Kept::All
        } else {
            Kept::Rows(kept)
        }
    }

    /// Indices of the rows satisfying `hit`, ascending; chunked over the
    /// pool for large inputs.
    fn kept_rows(&self, hit: impl Fn(&[Value]) -> bool + Sync) -> Vec<u32> {
        concat(par_rows(self.len, |start, end| {
            (start..end)
                .filter(|&i| hit(self.row(i)))
                .map(|i| i as u32)
                .collect::<Vec<u32>>()
        }))
    }

    /// Positions of `self.cols` entries present in `keep`, via a sorted
    /// merge walk (O(|cols| + |keep| log |keep|), not O(|cols|·|keep|)).
    fn keep_positions(&self, keep: &[Col]) -> Vec<usize> {
        let mut sorted_keep = keep.to_vec();
        sorted_keep.sort_unstable();
        sorted_keep.dedup();
        shared_positions(&self.cols, &sorted_keep).0
    }

    /// Projection `π_keep(self)` (columns not present are ignored).
    pub fn project(&self, keep: &[Col]) -> Bindings {
        let sp = obs::trace::span("algebra.project");
        let positions = self.keep_positions(keep);
        let out = if positions.len() == self.cols.len() {
            self.clone() // projecting onto all columns: a copy of self
        } else {
            self.project_positions(&positions)
        };
        Self::record_project(&sp, self.len, &out);
        out
    }

    /// [`Bindings::project`] consuming `self`: projecting onto every
    /// column is a move, not a copy.
    pub fn into_projection(self, keep: &[Col]) -> Bindings {
        let sp = obs::trace::span("algebra.project");
        let rows_in = self.len;
        let positions = self.keep_positions(keep);
        let out = if positions.len() == self.cols.len() {
            self
        } else {
            self.project_positions(&positions)
        };
        Self::record_project(&sp, rows_in, &out);
        out
    }

    fn record_project(sp: &obs::trace::Span, rows_in: usize, out: &Bindings) {
        if sp.is_armed() {
            sp.add("rows_in", rows_in as u64);
            sp.add("rows_out", out.len as u64);
            sp.add("bytes_out", bytes_of(out));
        }
    }

    fn project_positions(&self, positions: &[usize]) -> Bindings {
        let out_cols: Vec<Col> = positions.iter().map(|&p| self.cols[p]).collect();
        if out_cols.is_empty() {
            // Projecting to nothing yields the unit iff nonempty.
            return Bindings {
                cols: out_cols,
                data: vec![],
                len: self.len.min(1),
            };
        }
        let w = out_cols.len();
        let mut data = concat(par_rows(self.len, |start, end| {
            let mut out = Vec::with_capacity((end - start) * w);
            for row in (start..end).map(|i| self.row(i)) {
                out.extend(positions.iter().map(|&p| row[p]));
            }
            out
        }));
        if is_prefix(positions) {
            // Prefix projection preserves canonical order; dedup suffices.
            let len = dedup_sorted_rows(&mut data, w);
            Bindings {
                cols: out_cols,
                data,
                len,
            }
        } else {
            Bindings::canonical(out_cols, data, self.len)
        }
    }

    /// Selection `σ_{col = value}`.
    pub fn select_eq(&self, col: Col, value: Value) -> Bindings {
        let Ok(pos) = self.cols.binary_search(&col) else {
            return self.clone();
        };
        self.filtered(|r| r[pos] == value)
    }

    /// Selection by a full sub-tuple over a set of columns: keeps the rows
    /// whose projection onto `sel.cols` equals `sel`'s single row. This is
    /// the paper's `σ_θ(S)`.
    pub fn select_theta(&self, theta_cols: &[Col], theta: &[Value]) -> Bindings {
        let positions: Vec<usize> = theta_cols
            .iter()
            .map(|c| {
                self.cols
                    .binary_search(c)
                    .expect("theta column not present")
            })
            .collect();
        self.filtered(|r| positions.iter().zip(theta).all(|(&p, v)| r[p] == *v))
    }

    /// The size of the largest group of rows sharing one projection onto
    /// `group_cols ∩ cols` (0 when there are no rows).
    pub(crate) fn largest_group(&self, group_cols: &[Col]) -> usize {
        let (_, groups) = key_groups(self, &self.keep_positions(group_cols));
        groups
            .iter()
            .map(|&(s, e)| (e - s) as usize)
            .max()
            .unwrap_or(0)
    }

    /// Groups the rows by their projection onto `group_cols ∩ cols`,
    /// returning `(key, σ_key(self))` pairs in key order — the
    /// initialization step `R_p⁰ = { σ_θ(r_p) | θ ∈ π_F(r_p) }` of
    /// Figure 13. Group keys are materialized once per *group* (not per
    /// row); when the group columns are a prefix, the canonical row order
    /// is already grouped and nothing is sorted or hashed at all.
    pub fn partition_by(&self, group_cols: &[Col]) -> Vec<(Tuple, Bindings)> {
        let positions = self.keep_positions(group_cols);
        let (order, groups) = key_groups(self, &positions);
        groups
            .into_iter()
            .map(|(start, end)| {
                let group = self.gather(&order[start as usize..end as usize]);
                let first = group.row(0);
                let key: Tuple = positions.iter().map(|&p| first[p]).collect();
                debug_assert!((1..group.len).all(|i| group.row(i - 1) < group.row(i)));
                (key, group)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(id: u32) -> Value {
        Value(id)
    }

    fn b(cols: &[Col], rows: &[&[u32]]) -> Bindings {
        Bindings::from_rows(
            cols.to_vec(),
            rows.iter()
                .map(|r| r.iter().map(|&x| v(x)).collect())
                .collect(),
        )
    }

    /// Nested-loop natural join over the public row API: every pair of
    /// rows that agrees on the shared columns, merged. The oracle the
    /// sort-merge kernel is checked against.
    fn nested_loop_join(l: &Bindings, r: &Bindings) -> Bindings {
        let extra: Vec<usize> = (0..r.cols().len())
            .filter(|&j| !l.cols().contains(&r.cols()[j]))
            .collect();
        let mut cols = l.cols().to_vec();
        cols.extend(extra.iter().map(|&j| r.cols()[j]));
        let mut rows = Vec::new();
        for a in l.rows() {
            for bb in r.rows() {
                let agree = l.cols().iter().enumerate().all(|(i, c)| {
                    r.cols()
                        .iter()
                        .position(|d| d == c)
                        .is_none_or(|j| a[i] == bb[j])
                });
                if agree {
                    let mut row = a.to_vec();
                    row.extend(extra.iter().map(|&j| bb[j]));
                    rows.push(row);
                }
            }
        }
        Bindings::from_rows(cols, rows)
    }

    #[test]
    fn canonicalization() {
        // Columns get sorted and rows permuted to match.
        let x = Bindings::from_rows(vec![2, 1], vec![vec![v(20), v(10)]]);
        assert_eq!(x.cols(), &[1, 2]);
        assert_eq!(x.row(0), &[v(10), v(20)]);
        // Duplicate rows collapse.
        let y = b(&[1], &[&[5], &[5], &[6]]);
        assert_eq!(y.len(), 2);
    }

    #[test]
    fn canonical_sort_every_width() {
        // Packed (1–4 columns) and index-sorted (5+) rows sort the same
        // way: lexicographically, duplicates dropped.
        for w in 1..=6u32 {
            let cols: Vec<Col> = (0..w).collect();
            let mut rows: Vec<Vec<Value>> = Vec::new();
            for i in 0..40u32 {
                rows.push((0..w).map(|j| v((i * 7 + j * 3) % 5)).collect());
            }
            let x = Bindings::from_rows(cols, rows.clone());
            rows.sort();
            rows.dedup();
            let got: Vec<Vec<Value>> = x.rows().map(<[Value]>::to_vec).collect();
            assert_eq!(got, rows, "width {w}");
        }
    }

    #[test]
    fn unit_and_empty() {
        let u = Bindings::unit();
        assert_eq!(u.len(), 1);
        let r = b(&[1, 2], &[&[1, 2], &[3, 4]]);
        assert_eq!(u.join(&r), r);
        let e = Bindings::empty(vec![1]);
        assert!(e.is_empty());
        assert!(e.join(&r).is_empty());
        // Nullary: unit and empty differ, and both behave as filters.
        let none = Bindings::empty(vec![]);
        assert_ne!(u, none);
        assert!(none.join(&r).is_empty());
        assert_eq!(u.join(&u), u);
        assert_eq!(r.semijoin(&u), r);
        assert!(r.semijoin(&none).is_empty());
        assert_eq!(u.project(&[]), u);
        assert_eq!(none.project(&[]), none);
        assert!(u.contains(&[]) && !none.contains(&[]));
    }

    #[test]
    fn join_on_shared_column() {
        let l = b(&[1, 2], &[&[1, 10], &[2, 20]]);
        let r = b(&[2, 3], &[&[10, 100], &[10, 101], &[30, 300]]);
        let j = l.join(&r);
        assert_eq!(j.cols(), &[1, 2, 3]);
        assert_eq!(j.len(), 2);
        assert!(j.contains(&[v(1), v(10), v(100)]));
        assert!(j.contains(&[v(1), v(10), v(101)]));
    }

    #[test]
    fn join_is_commutative() {
        let l = b(&[1, 2], &[&[1, 10], &[2, 20], &[3, 10]]);
        let r = b(&[2, 3], &[&[10, 100], &[20, 200]]);
        assert_eq!(l.join(&r), r.join(&l));
    }

    #[test]
    fn join_prefix_fast_path_matches_general() {
        // Shared column 1 is a prefix of the left (cols [1,2]) and of the
        // right (cols [1,3]): both sides take the no-sort fast path.
        let l = b(&[1, 2], &[&[1, 10], &[1, 11], &[2, 20]]);
        let r = b(&[1, 3], &[&[1, 7], &[2, 8], &[2, 9]]);
        let j = l.join(&r);
        assert_eq!(j.cols(), &[1, 2, 3]);
        assert_eq!(j.len(), 4);
        // Shared column 3 is a suffix on the left (cols [1,3]): general path.
        let l2 = b(&[1, 3], &[&[1, 7], &[2, 7], &[3, 8]]);
        let r2 = b(&[3], &[&[7]]);
        let j2 = l2.join(&r2);
        assert_eq!(j2.len(), 2);
        assert_eq!(j2, nested_loop_join(&l2, &r2));
    }

    #[test]
    fn join_matches_nested_loop() {
        let l = b(&[1, 2, 4], &[&[1, 10, 5], &[2, 20, 5], &[3, 10, 6]]);
        let r = b(&[2, 3], &[&[10, 100], &[10, 101], &[20, 200]]);
        assert_eq!(l.join(&r), nested_loop_join(&l, &r));
        assert_eq!(r.join(&l), nested_loop_join(&r, &l));
    }

    #[test]
    fn cartesian_product_when_disjoint() {
        let l = b(&[1], &[&[1], &[2]]);
        let r = b(&[2], &[&[10], &[20], &[30]]);
        assert_eq!(l.join(&r).len(), 6);
        assert_eq!(l.join(&r), nested_loop_join(&l, &r));
    }

    #[test]
    fn semijoin() {
        let l = b(&[1, 2], &[&[1, 10], &[2, 20], &[3, 30]]);
        let r = b(&[2], &[&[10], &[30]]);
        let s = l.semijoin(&r);
        assert_eq!(s.cols(), &[1, 2]);
        assert_eq!(s.len(), 2);
        assert!(s.contains(&[v(1), v(10)]) && s.contains(&[v(3), v(30)]));
        // ⋉ equals π(⋈)
        assert_eq!(s, l.join(&r).project(&[1, 2]));
        // The in-place form compacts to the same set and reports the drop.
        let mut m = l.clone();
        assert!(m.semijoin_in_place(&r));
        assert_eq!(m, s);
        assert!(!m.semijoin_in_place(&r));
        assert_eq!(m, s);
    }

    #[test]
    fn semijoin_non_prefix_partial_key() {
        // Probe key is column 3 of [2, 3, 4]: neither a prefix nor all
        // of the probe side's columns, so keys are gathered and sorted.
        let l = b(&[1, 3], &[&[1, 7], &[2, 8], &[3, 9]]);
        let r = b(&[2, 3, 4], &[&[5, 9, 0], &[4, 7, 1], &[3, 9, 2]]);
        assert_eq!(l.semijoin(&r), b(&[1, 3], &[&[1, 7], &[3, 9]]));
        assert_eq!(l.semijoin(&r), nested_loop_join(&l, &r).project(&[1, 3]));
        // Three shared columns take the unpacked key path.
        let l3 = b(
            &[1, 2, 3, 4],
            &[&[1, 2, 3, 0], &[1, 2, 4, 0], &[5, 2, 3, 9]],
        );
        let r3 = b(
            &[0, 1, 3, 4],
            &[&[7, 1, 3, 0], &[8, 5, 3, 9], &[8, 5, 3, 8]],
        );
        assert_eq!(
            l3.semijoin(&r3),
            b(&[1, 2, 3, 4], &[&[1, 2, 3, 0], &[5, 2, 3, 9]])
        );
        assert_eq!(
            l3.semijoin(&r3),
            nested_loop_join(&l3, &r3).project(&[1, 2, 3, 4])
        );
    }

    #[test]
    fn semijoin_no_shared_cols() {
        let l = b(&[1], &[&[1]]);
        assert_eq!(l.semijoin(&b(&[2], &[&[9]])), l);
        assert!(l.semijoin(&Bindings::empty(vec![2])).is_empty());
    }

    #[test]
    fn project() {
        let x = b(&[1, 2, 3], &[&[1, 10, 100], &[1, 10, 101], &[2, 20, 200]]);
        let p = x.project(&[1, 2]);
        assert_eq!(p.cols(), &[1, 2]);
        assert_eq!(p.len(), 2);
        // non-prefix projection exercises the re-sorting path
        let q = x.project(&[3]);
        assert_eq!(q.cols(), &[3]);
        assert_eq!(q.len(), 3);
        // projecting to nothing yields unit iff nonempty
        let all = x.project(&[]);
        assert_eq!(all, Bindings::unit());
        assert_eq!(Bindings::empty(vec![1]).project(&[]).len(), 0);
        // the consuming form agrees, and is the identity on all columns
        assert_eq!(x.clone().into_projection(&[3]), q);
        assert_eq!(x.clone().into_projection(&[1, 2, 3, 9]), x);
    }

    #[test]
    fn select() {
        let x = b(&[1, 2], &[&[1, 10], &[2, 20]]);
        assert_eq!(x.select_eq(1, v(1)).len(), 1);
        assert_eq!(x.select_eq(9, v(1)), x); // absent column: no-op
        let t = x.select_theta(&[1, 2], &[v(2), v(20)]);
        assert_eq!(t.len(), 1);
        // σ over no columns keeps the unit.
        assert_eq!(Bindings::unit().select_theta(&[], &[]), Bindings::unit());
    }

    #[test]
    fn from_atom_with_constants_and_repeats() {
        let r = Relation::from_rows(vec![
            vec![v(1), v(1), v(5)],
            vec![v(1), v(2), v(5)],
            vec![v(2), v(2), v(7)],
        ]);
        // r(X, X, 5): repeated variable + constant
        let out = Bindings::from_atom(
            &r,
            &[ColTerm::Var(0), ColTerm::Var(0), ColTerm::Const(v(5))],
        );
        assert_eq!(out.cols(), &[0]);
        assert_eq!(out.len(), 1);
        assert!(out.contains(&[v(1)]));
    }

    #[test]
    fn from_atom_emits_sorted_columns_for_unsorted_terms() {
        let r = Relation::from_rows(vec![vec![v(1), v(2)], vec![v(3), v(4)]]);
        // r(Y, X) with X < Y: output columns must still come back sorted.
        let out = Bindings::from_atom(&r, &[ColTerm::Var(7), ColTerm::Var(2)]);
        assert_eq!(out.cols(), &[2, 7]);
        assert!(out.contains(&[v(2), v(1)]));
        assert!(out.contains(&[v(4), v(3)]));
    }

    #[test]
    fn partition_by_groups() {
        let x = b(&[1, 2], &[&[1, 10], &[1, 11], &[2, 20]]);
        let parts = x.partition_by(&[1]);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].0.as_ref(), &[v(1)]);
        assert_eq!(parts[0].1.len(), 2);
        assert_eq!(parts[1].1.len(), 1);
        // partitioning by no columns returns one group with everything
        let whole = x.partition_by(&[]);
        assert_eq!(whole.len(), 1);
        assert_eq!(whole[0].1, x);
        // nullary: the unit is one group, the empty set none
        assert_eq!(Bindings::unit().partition_by(&[]).len(), 1);
        assert!(Bindings::empty(vec![]).partition_by(&[]).is_empty());
    }

    #[test]
    fn partition_by_non_prefix_keys_sorted() {
        let x = b(&[1, 2], &[&[1, 20], &[2, 10], &[3, 20]]);
        let parts = x.partition_by(&[2]);
        assert_eq!(parts.len(), 2);
        // Keys ascend even though column 2 is not a row prefix.
        assert_eq!(parts[0].0.as_ref(), &[v(10)]);
        assert_eq!(parts[1].0.as_ref(), &[v(20)]);
        assert_eq!(parts[1].1.len(), 2);
        // Rows within each group stay canonically sorted.
        for (_, g) in &parts {
            let rows: Vec<&[Value]> = g.rows().collect();
            assert!(rows.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn parallel_kernels_match_sequential() {
        use cqcount_arith::prng::Rng;
        let mut rng = Rng::seed_from_u64(0xA11E);
        let mut lrows = Vec::new();
        let mut rrows = Vec::new();
        for _ in 0..6000 {
            lrows.push(vec![v(rng.range_u32(0, 50)), v(rng.range_u32(0, 50))]);
            rrows.push(vec![v(rng.range_u32(0, 50)), v(rng.range_u32(0, 50))]);
        }
        let l = Bindings::from_rows(vec![1, 2], lrows);
        let r = Bindings::from_rows(vec![2, 3], rrows);
        let (js, ss, ps) =
            cqcount_exec::with_threads(1, || (l.join(&r), l.semijoin(&r), l.project(&[2])));
        let (jp, sp, pp) =
            cqcount_exec::with_threads(4, || (l.join(&r), l.semijoin(&r), l.project(&[2])));
        assert_eq!(js, jp);
        assert_eq!(ss, sp);
        assert_eq!(ps, pp);
        assert_eq!(js, nested_loop_join(&l, &r));
    }
}
