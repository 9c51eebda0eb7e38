//! SVM32 register file.

/// One of the 16 SVM32 general-purpose registers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(u8);

impl Reg {
    /// Syscall number / return value (the `EAX` analogue).
    pub const R0: Reg = Reg(0);
    /// First argument register.
    pub const R1: Reg = Reg(1);
    /// Second argument register.
    pub const R2: Reg = Reg(2);
    /// Third argument register.
    pub const R3: Reg = Reg(3);
    /// Fourth argument register.
    pub const R4: Reg = Reg(4);
    /// Fifth argument register.
    pub const R5: Reg = Reg(5);
    /// Last ordinary argument register.
    pub const R6: Reg = Reg(6);
    /// Authenticated-call argument: policy descriptor (`polDes`).
    pub const R7: Reg = Reg(7);
    /// Authenticated-call argument: basic block id of the call (`blockID`).
    pub const R8: Reg = Reg(8);
    /// Authenticated-call argument: pointer to the predecessor-set AS
    /// contents (`predSet`).
    pub const R9: Reg = Reg(9);
    /// Authenticated-call argument: pointer to the policy state cell
    /// (`lbPtr`).
    pub const R10: Reg = Reg(10);
    /// Authenticated-call argument: pointer to the 16-byte call MAC
    /// (`callMAC`).
    pub const R11: Reg = Reg(11);
    /// Scratch register (used freely by compiler-generated code).
    pub const R12: Reg = Reg(12);
    /// Frame pointer.
    pub const FP: Reg = Reg(13);
    /// Link scratch register.
    pub const LR: Reg = Reg(14);
    /// Stack pointer.
    pub const SP: Reg = Reg(15);

    /// Number of registers in the file.
    pub const COUNT: usize = 16;

    /// Constructs a register from its index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 16`.
    pub fn new(index: u8) -> Reg {
        assert!(
            (index as usize) < Reg::COUNT,
            "register index {index} out of range"
        );
        Reg(index)
    }

    /// Fallible construction from an index.
    pub fn try_new(index: u8) -> Option<Reg> {
        ((index as usize) < Reg::COUNT).then_some(Reg(index))
    }

    /// The register's index, 0..=15.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Raw encoding byte.
    pub fn byte(self) -> u8 {
        self.0
    }

    /// The argument registers `R1..=R6` in order.
    pub fn args() -> [Reg; 6] {
        [Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5, Reg::R6]
    }
}

impl std::fmt::Display for Reg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Reg::FP => write!(f, "fp"),
            Reg::LR => write!(f, "lr"),
            Reg::SP => write!(f, "sp"),
            Reg(n) => write!(f, "r{n}"),
        }
    }
}

impl std::str::FromStr for Reg {
    type Err = ParseRegError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "fp" => return Ok(Reg::FP),
            "lr" => return Ok(Reg::LR),
            "sp" => return Ok(Reg::SP),
            _ => {}
        }
        let rest = s
            .strip_prefix('r')
            .ok_or_else(|| ParseRegError(s.to_string()))?;
        let n: u8 = rest.parse().map_err(|_| ParseRegError(s.to_string()))?;
        Reg::try_new(n).ok_or_else(|| ParseRegError(s.to_string()))
    }
}

/// Error parsing a register name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseRegError(pub String);

impl std::fmt::Display for ParseRegError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid register name `{}`", self.0)
    }
}

impl std::error::Error for ParseRegError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_parse_roundtrip() {
        for i in 0..16u8 {
            let r = Reg::new(i);
            let parsed: Reg = r.to_string().parse().unwrap();
            assert_eq!(parsed, r);
        }
        assert_eq!("r13".parse::<Reg>().unwrap(), Reg::FP);
        assert_eq!("sp".parse::<Reg>().unwrap(), Reg::SP);
    }

    #[test]
    fn invalid_parse() {
        assert!("r16".parse::<Reg>().is_err());
        assert!("x1".parse::<Reg>().is_err());
        assert!("".parse::<Reg>().is_err());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn new_panics_out_of_range() {
        let _ = Reg::new(16);
    }

    #[test]
    fn register_groups() {
        assert_eq!(Reg::args().len(), 6);
    }
}
