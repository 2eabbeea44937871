//! Operands for the property tests of the SpGEMM models.

use stellar_tensor::CsrMatrix;

/// Raw CSR arrays of a `rows × cols` matrix drawn from `seed`. About one
/// row and one column in six is left empty; every other slot is stored
/// with probability `fill`/8. One stored value in thirteen is an explicit
/// zero (`0.0` or `-0.0`); the rest are `±0.5`, `±1` or `±2`, so products
/// cancel exactly at many output coordinates of `A·A`.
pub fn raw_csr(rows: usize, cols: usize, fill: u64, seed: u64) -> CsrMatrix {
    const NONZERO: [f64; 6] = [0.5, -0.5, 1.0, -1.0, 2.0, -2.0];
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let empty_cols: Vec<bool> = (0..cols).map(|_| next() % 6 == 0).collect();
    let (mut row_ptr, mut col_idx, mut values) = (vec![0], Vec::new(), Vec::new());
    for _ in 0..rows {
        let empty_row = next() % 6 == 0;
        for (c, &empty_col) in empty_cols.iter().enumerate() {
            if !empty_row && !empty_col && next() % 8 < fill {
                col_idx.push(c);
                values.push(match next() % 13 {
                    0 if next() % 2 == 0 => 0.0,
                    0 => -0.0,
                    x => NONZERO[(x % 6) as usize],
                });
            }
        }
        row_ptr.push(col_idx.len());
    }
    CsrMatrix::from_raw(rows, cols, row_ptr, col_idx, values)
}
