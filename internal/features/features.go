package features

import (
	"encoding/json"
	"fmt"
	"sort"
)

// Features mirrors the model features of Table 3. The uptime feature is not
// part of this struct: it is supplied per-prediction (the reprediction
// input, §3) and appended by Encoder.Encode.
type Features struct {
	Zone            string // geographical zone the VM runs in
	VMShape         string // resource-dimension tag, e.g. "c2-standard-8"
	VMCategory      string // internal VM categorization tag
	MetadataID      string // groups related VMs together
	Priority        string // preemption priority band
	HasSSD          bool   // local SSD attached
	Spot            bool   // provisioning model: spot vs on-demand
	AdmissionPolicy bool   // admitted without quota check (special VMs)
	CPUMilli        int64  // shape CPU, milli-cores (numeric hint)
	MemoryMB        int64  // shape memory, MiB (numeric hint)
}

// FieldNames lists the encoded feature columns in order, for feature
// importance reporting (Fig. 11). The final column, "uptime", is appended by
// Encode when an uptime is supplied.
var FieldNames = []string{
	"zone", "vm_shape", "vm_category", "metadata_id", "priority",
	"has_ssd", "spot", "admission_policy", "cpu", "memory", "uptime",
}

// NumColumns is the width of an encoded feature vector (including uptime).
const NumColumns = 11

// UptimeColumn is the index of the uptime column, the only one that
// changes over a VM's life.
const UptimeColumn = NumColumns - 1

// MinCategoryCount is the rare-category collapse threshold from Appendix A:
// categories with fewer than 10 training examples become "Other".
const MinCategoryCount = 10

// Example pairs features with a training label (log10 lifetime hours).
type Example struct {
	F           Features
	Log10Hours  float64 // label: log10 of the (possibly capped) lifetime in hours
	UptimeLog10 float64 // log10 uptime hours input (survival augmentation, §3)
}

// Encoder maps Features to a fixed-width vector using target encoding
// learned from a training set. The zero Encoder is not usable; build one
// with Fit.
type Encoder struct {
	cat [5]map[string]float64 // per categorical column: category -> mean label
	def [5]float64            // per categorical column: fallback ("Other") mean
}

// catValues extracts the five categorical columns in a fixed order.
func catValues(f Features) [5]string {
	return [5]string{f.Zone, f.VMShape, f.VMCategory, f.MetadataID, f.Priority}
}

// Fit learns a target encoding from labeled examples: each category maps to
// the mean label of its members; categories with fewer than
// MinCategoryCount members collapse into the fallback mean.
func Fit(examples []Example) *Encoder {
	e := &Encoder{}
	for col := 0; col < 5; col++ {
		sum := map[string]float64{}
		cnt := map[string]int{}
		total, n := 0.0, 0
		for _, ex := range examples {
			v := catValues(ex.F)[col]
			sum[v] += ex.Log10Hours
			cnt[v]++
			total += ex.Log10Hours
			n++
		}
		e.cat[col] = make(map[string]float64, len(sum))
		if n > 0 {
			e.def[col] = total / float64(n)
		}
		for v, c := range cnt {
			if c >= MinCategoryCount {
				e.cat[col][v] = sum[v] / float64(c)
			}
		}
	}
	return e
}

// Encode converts f into a numeric vector. uptimeLog10 is the log10 of the
// VM's uptime so far in hours (use a large negative value, e.g. -4, for
// zero uptime); it occupies the final column. The vector is returned by
// value so encoding a prediction's input does not allocate.
func (e *Encoder) Encode(f Features, uptimeLog10 float64) [NumColumns]float64 {
	var out [NumColumns]float64
	cats := catValues(f)
	for col := 0; col < 5; col++ {
		if v, ok := e.cat[col][cats[col]]; ok {
			out[col] = v
		} else {
			out[col] = e.def[col]
		}
	}
	out[5] = b2f(f.HasSSD)
	out[6] = b2f(f.Spot)
	out[7] = b2f(f.AdmissionPolicy)
	out[8] = float64(f.CPUMilli) / 1000.0
	out[9] = float64(f.MemoryMB) / 1024.0
	out[UptimeColumn] = uptimeLog10
	return out
}

// Categories returns the retained (non-collapsed) categories of column col,
// sorted, for diagnostics.
func (e *Encoder) Categories(col int) []string {
	if col < 0 || col >= 5 {
		return nil
	}
	out := make([]string, 0, len(e.cat[col]))
	for v := range e.cat[col] {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// String renders a compact diagnostic form.
func (f Features) String() string {
	return fmt.Sprintf("zone=%s shape=%s cat=%s meta=%s prio=%s ssd=%t spot=%t adm=%t",
		f.Zone, f.VMShape, f.VMCategory, f.MetadataID, f.Priority, f.HasSSD, f.Spot, f.AdmissionPolicy)
}

// encoderJSON is the serialization form of Encoder.
type encoderJSON struct {
	Cat [5]map[string]float64 `json:"cat"`
	Def [5]float64            `json:"def"`
}

// MarshalJSON implements json.Marshaler so trained encoders can be persisted
// alongside their models (the paper compiles both into the scheduler
// binary; we ship them in one file).
func (e *Encoder) MarshalJSON() ([]byte, error) {
	return json.Marshal(encoderJSON{Cat: e.cat, Def: e.def})
}

// UnmarshalJSON implements json.Unmarshaler.
func (e *Encoder) UnmarshalJSON(data []byte) error {
	var ej encoderJSON
	if err := json.Unmarshal(data, &ej); err != nil {
		return err
	}
	e.cat = ej.Cat
	e.def = ej.Def
	for i := range e.cat {
		if e.cat[i] == nil {
			e.cat[i] = map[string]float64{}
		}
	}
	return nil
}
