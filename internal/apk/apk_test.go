package apk

import (
	"os"
	"path/filepath"
	"testing"

	"flowdroid/internal/framework"
	"flowdroid/internal/ir"
)

// leakageApp is the paper's Listing 1 example as an in-memory package: an
// activity that reads a password field in onRestart and sends it via SMS
// from an XML-declared button callback.
var leakageApp = map[string]string{
	"AndroidManifest.xml": `<?xml version="1.0"?>
<manifest xmlns:android="http://schemas.android.com/apk/res/android"
          package="com.example.leakage">
  <application>
    <activity android:name=".LeakageApp">
      <intent-filter>
        <action android:name="android.intent.action.MAIN"/>
      </intent-filter>
    </activity>
    <activity android:name=".DisabledActivity" android:enabled="false"/>
  </application>
</manifest>`,
	"res/layout/main.xml": `<?xml version="1.0"?>
<LinearLayout xmlns:android="http://schemas.android.com/apk/res/android">
  <EditText android:id="@+id/username"/>
  <EditText android:id="@+id/pwdString" android:inputType="textPassword"/>
  <Button android:id="@+id/button1" android:onClick="sendMessage"/>
</LinearLayout>`,
	"classes.ir": `
class com.example.leakage.User {
  field name: java.lang.String
  field pwd: java.lang.String
  method init(n: java.lang.String, p: java.lang.String): void {
    this.name = n
    this.pwd = p
  }
  method getName(): java.lang.String {
    r = this.name
    return r
  }
  method getpwd(): java.lang.String {
    r = this.pwd
    return r
  }
}

class com.example.leakage.LeakageApp extends android.app.Activity {
  field user: com.example.leakage.User

  method onCreate(b: android.os.Bundle): void {
    this.setContentView(@layout/main)
  }

  method onRestart(): void {
    ut = this.findViewById(@id/username)
    local unameText: android.widget.EditText
    unameText = (android.widget.EditText) ut
    pt = this.findViewById(@id/pwdString)
    local pwdText: android.widget.EditText
    pwdText = (android.widget.EditText) pt
    uname = unameText.getText()
    pwd = pwdText.getText()
    if * goto skip
    u = new com.example.leakage.User(uname, pwd)
    this.user = u
  skip:
    return
  }

  // Declared in res/layout/main.xml via android:onClick.
  method sendMessage(v: android.view.View): void {
    u = this.user
    if * goto out
    pwd = u.getpwd()
    obf = pwd + "_"
    name = u.getName()
    msg = "User: " + name
    msg2 = msg + obf
    sms = android.telephony.SmsManager.getDefault()
    sms.sendTextMessage("+44 020 7321 0905", null, msg2, null, null)
  out:
    return
  }
}

class com.example.leakage.DisabledActivity extends android.app.Activity {
  method onCreate(b: android.os.Bundle): void {
    return
  }
}
`,
}

func TestLoadFiles(t *testing.T) {
	app, err := LoadFiles(leakageApp)
	if err != nil {
		t.Fatalf("LoadFiles: %v", err)
	}
	if app.Package != "com.example.leakage" {
		t.Errorf("package = %q", app.Package)
	}
	comps := app.Components()
	if len(comps) != 1 {
		t.Fatalf("enabled components = %d, want 1 (disabled one filtered)", len(comps))
	}
	c := comps[0]
	if c.Class != "com.example.leakage.LeakageApp" || c.Kind != framework.Activity || !c.Main {
		t.Errorf("component = %+v", c)
	}
	if app.ComponentByClass("com.example.leakage.DisabledActivity").Enabled {
		t.Error("DisabledActivity should be disabled")
	}
}

func TestLayoutModel(t *testing.T) {
	app, err := LoadFiles(leakageApp)
	if err != nil {
		t.Fatal(err)
	}
	l := app.Layouts["main"]
	if l == nil {
		t.Fatal("layout main missing")
	}
	if len(l.Controls) != 3 {
		t.Fatalf("controls = %d, want 3", len(l.Controls))
	}
	pws := l.PasswordControls()
	if len(pws) != 1 || pws[0].ID != "pwdString" {
		t.Errorf("password controls = %v", pws)
	}
	handlers := l.ClickHandlers()
	if len(handlers) != 1 || handlers[0] != "sendMessage" {
		t.Errorf("click handlers = %v", handlers)
	}
}

func TestResourceResolution(t *testing.T) {
	app, err := LoadFiles(leakageApp)
	if err != nil {
		t.Fatal(err)
	}
	pwdID, ok := app.Res.Lookup("id/pwdString")
	if !ok {
		t.Fatal("id/pwdString not in resource table")
	}
	layoutID, ok := app.Res.Lookup("layout/main")
	if !ok {
		t.Fatal("layout/main not in resource table")
	}
	if pwdID == layoutID {
		t.Error("widget and layout ids must not collide")
	}
	if name, _ := app.Res.NameOf(pwdID); name != "id/pwdString" {
		t.Errorf("NameOf(%d) = %q", pwdID, name)
	}
	// The findViewById(@id/pwdString) constant must be resolved.
	m := app.Program.Class("com.example.leakage.LeakageApp").Method("onRestart", 0)
	found := false
	for _, s := range m.Body() {
		call := ir.CallOf(s)
		if call == nil || call.Ref.Name != "findViewById" {
			continue
		}
		id, ok := ConstID(call.Args[0])
		if !ok {
			t.Fatal("findViewById argument is not a resolvable constant")
		}
		if id == pwdID {
			found = true
		}
	}
	if !found {
		t.Error("no findViewById call resolved to id/pwdString")
	}
}

func TestValidateKindMismatch(t *testing.T) {
	bad := map[string]string{
		"AndroidManifest.xml": `<manifest package="x"><application>
			<service android:name=".NotAService"/></application></manifest>`,
		"c.ir": `class x.NotAService extends android.app.Activity {
			method onCreate(b: android.os.Bundle): void { return } }`,
	}
	if _, err := LoadFiles(bad); err == nil {
		t.Error("expected validation error for activity declared as service")
	}
}

func TestLoadDirAndZip(t *testing.T) {
	dir := t.TempDir()
	for p, content := range leakageApp {
		full := filepath.Join(dir, p)
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	app, err := LoadDir(dir)
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	if app.Package != "com.example.leakage" {
		t.Errorf("package = %q", app.Package)
	}
}

func TestManifestErrors(t *testing.T) {
	if _, err := ParseManifest([]byte(`<manifest></manifest>`)); err == nil {
		t.Error("manifest without package should fail")
	}
	if _, err := ParseManifest([]byte(`not xml`)); err == nil {
		t.Error("non-XML manifest should fail")
	}
	if _, err := ParseManifest([]byte(
		`<manifest package="p"><application><activity/></application></manifest>`)); err == nil {
		t.Error("component without name should fail")
	}
}

// TestResourceRefPositions loads one app per operand position a resource
// constant can take. Every position the loader resolves must also
// register the @id/ name, or the load fails with "references undefined
// resource".
func TestResourceRefPositions(t *testing.T) {
	body := func(m *ir.Method, i int) ir.Stmt { return m.Body()[i] }
	cases := []struct {
		name string
		code string
		get  func(m *ir.Method) ir.Value
	}{
		{"assign", "v = @id/x\n return v", func(m *ir.Method) ir.Value {
			return body(m, 0).(*ir.AssignStmt).RHS
		}},
		{"call argument", "v = this.findViewById(@id/x)\n return 0", func(m *ir.Method) ir.Value {
			return body(m, 0).(*ir.AssignStmt).RHS.(*ir.InvokeExpr).Args[0]
		}},
		{"return", "return @id/x", func(m *ir.Method) ir.Value {
			return body(m, 0).(*ir.ReturnStmt).Value
		}},
		{"binop", "v = @id/x + 1\n return v", func(m *ir.Method) ir.Value {
			return body(m, 0).(*ir.AssignStmt).RHS.(*ir.Binop).L
		}},
		{"array store index", "a = newarray int\n a[@id/x] = 1\n return 0", func(m *ir.Method) ir.Value {
			return body(m, 1).(*ir.AssignStmt).LHS.(*ir.ArrayRef).Index
		}},
		{"array load index", "a = newarray int\n v = a[@id/x]\n return v", func(m *ir.Method) ir.Value {
			return body(m, 1).(*ir.AssignStmt).RHS.(*ir.ArrayRef).Index
		}},
		{"cast operand", "v = (java.lang.Object) @id/x\n return 0", func(m *ir.Method) ir.Value {
			return body(m, 0).(*ir.AssignStmt).RHS.(*ir.Cast).X
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			app, err := LoadFiles(map[string]string{
				"AndroidManifest.xml": `<manifest package="r"><application>
					<activity android:name=".Main"/></application></manifest>`,
				"c.ir": "class r.Main extends android.app.Activity {\n method id(): int {\n " +
					c.code + "\n }\n}\n",
			})
			if err != nil {
				t.Fatalf("LoadFiles: %v", err)
			}
			want, ok := app.Res.Lookup("id/x")
			if !ok {
				t.Fatal("id/x not in resource table")
			}
			got, ok := ConstID(c.get(app.Program.Class("r.Main").Method("id", 0)))
			if !ok || got != want {
				t.Errorf("@id/x resolved to %d (%v), want %d", got, ok, want)
			}
		})
	}
}
